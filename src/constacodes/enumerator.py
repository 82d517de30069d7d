"""Enumerate and count the ideal families of the u-extended chain rings.

For one irreducible factor f of degree d, e = 2^k * lam and v the root
of u^2 in chainring, f^(2^(k-1)) times a unit, each ideal of K + uK is

    <a + u*f^s, f^(s+t)>,   a = [v*f^s] + f^(s+ceil(t/2))*h,

for s + t <= e, h a residue mod f^(floor(t/2)), and the v-term present
exactly when the gap t exceeds 2^k.  Gap 0 is <f^s>, and at s + t = e
the second generator f^e is zero.  The ideal has 2^(m*d*(2e-2s-t))
codewords, the pi-degree size law for rows of degrees s and s + t.
Gap t has e - t + 1 values of s, each with q^(floor(t/2)) ideals, so
the gaps 2j and 2j+1 give the term (1+4i) * q^(half-i) of the paper's
sum form, i = half - j, half = e/2.  The printed labels are the
paper's six families, which split the shape by gap:

  1. <v*f^s + f^(half+ceil(s/2))*h + u*f^s>,
         0 <= s <= 2^k*(lam-1)-1,      h mod f^(half-ceil(s/2))
  2. <f^(half+ceil(s/2))*h + u*f^s>,
         2^k*(lam-1) <= s <= e-1,      h mod f^(half-ceil(s/2))
  3. <f^s>,                              0 <= s <= e
  4. <u*f^s, f^(s+1)>,                   0 <= s <= e-2
  5. <f^(s+ceil(t/2))*h + u*f^s, f^(s+t)>,
         2 <= t <= 2^k,      0 <= s <= e-1-t,   h mod f^(floor(t/2))
  6. <v*f^s + f^(s+ceil(t/2))*h + u*f^s, f^(s+t)>,
         2^k+1 <= t <= e-1,  0 <= s <= e-1-t,   h mod f^(floor(t/2))

Families 1-2 have gap e - s, family 3 gap 0, families 4-6 gap t;
ideal_gap is the one place they are told apart.  For t <= 2^k the
v-term is a multiple of f^(s+ceil(t/2)) and would only relabel h within
its block; for t > 2^k the u-action needs it.  So families 1 and 2 part at
e - s = 2^k, s = 2^k*(lam-1).  The u-closure check below certifies
every emitted descriptor, and the materialization oracle in the test
suite pins the size law down independently.

Descriptors stream in a fixed total order: family, then t, then s,
then h, in chainring.iter_h's residue order.  Streams are lazy so
astronomically large enumerations can be paged.

Every stream can start at any index.  Block (family, s, t) holds
exactly q^l descriptors (l = h_space_exponent), so a factor's stream
skips whole blocks and starts iter_h inside the block it lands in.  A
code is a mixed-radix number over the factors, with the per-factor
ideal counts as radices, so code_runs splits its start index into one
index per factor.  A seek costs O(blocks + r) for r factors, whatever
the index; walking there would cost O(index).  Inside one of its runs
only the last factor's h moves; enumerate_codes flattens the runs.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

from . import chainring as cr
from . import polyring as pr
from .chainring import ChainCtx, Vec2, iter_h
from .factorizer import FactorData
from .params import Params
from .polyring import Poly


class IdealDescriptor(NamedTuple):
    """One ideal of K + uK for a single factor index (1-based)."""

    factor: int
    family: int
    s: int
    t: int | None = None
    h: Poly = ()

    def as_dict(self) -> dict:
        return {
            "factor": self.factor,
            "family": self.family,
            "s": self.s,
            "t": self.t,
            "h": list(self.h),
        }


class CodeDescriptor(NamedTuple):
    """One code: a choice of ideal descriptor per factor."""

    components: tuple[IdealDescriptor, ...]

    def as_dict(self) -> dict:
        return {"components": [c.as_dict() for c in self.components]}


# ----------------------------------------------------------------------
# Counting formulas
# ----------------------------------------------------------------------

def count_ideals_sum_form(q: int, k: int, lam: int) -> int:
    """Sum over i of (1+4i) * q^(2^(k-1)*lam - i), by Horner's rule from
    i = 0 up: one product by q per term, no powers."""
    if q < 2 or k < 2 or lam < 2:
        raise ValueError("need q >= 2, k >= 2, lam >= 2")
    return functools.reduce(lambda acc, i: acc * q + 1 + 4 * i,
                            range((1 << (k - 1)) * lam + 1), 0)


def count_ideals_closed_form(q: int, k: int, lam: int) -> int:
    """Closed form ((q+3)q^(half+1) - q(4*half+5) + 4*half+1) / (q-1)^2."""
    if q < 2 or k < 2 or lam < 2:
        raise ValueError("need q >= 2, k >= 2, lam >= 2")
    half = (1 << (k - 1)) * lam
    num = (q + 3) * q ** (half + 1) - q * (4 * half + 5) + 4 * half + 1
    den = (q - 1) ** 2
    if num % den:
        raise ArithmeticError(f"closed form not an integer at q={q}, k={k}, lam={lam}")
    return num // den


def count_ideals(q: int, k: int, lam: int) -> int:
    """Both count forms, asserted equal."""
    s = count_ideals_sum_form(q, k, lam)
    c = count_ideals_closed_form(q, k, lam)
    if s != c:
        raise ArithmeticError(f"count forms disagree at q={q}, k={k}, lam={lam}: {s} != {c}")
    return s


def factor_counts(params: Params, degrees: list[int]) -> list[int]:
    """Number of ideals per factor, from the factor degrees: the radices
    of the code stream.  Each distinct degree runs count_ideals once."""
    counts = {d: count_ideals(1 << (params.m * d), params.k, params.lam)
              for d in dict.fromkeys(degrees)}
    return [counts[d] for d in degrees]


def count_codes(params: Params, factor_data: FactorData) -> int:
    """Total number of codes: product of per-factor ideal counts."""
    return math.prod(factor_counts(params, [ent.degree for ent in factor_data.entries]))


def count_submodules_length2(q: int, e: int) -> int:
    """Number of submodules of K^2 for a chain ring with residue size q,
    nilpotency e: sum of (2i+1) * q^(e-i)."""
    if q < 2 or e < 1:
        raise ValueError("need q >= 2, e >= 1")
    return sum((2 * i + 1) * q ** (e - i) for i in range(e + 1))


# ----------------------------------------------------------------------
# Descriptor streams
# ----------------------------------------------------------------------

def _family(params: Params, s: int, gap: int) -> int:
    """The printed family of the shape <a + u*f^s, f^(s+gap)>: 3 for gap
    0, 1 or 2 when f^(s+gap) = f^e is zero, and 4, 5 or 6 otherwise."""
    two_k = 1 << params.k
    if not gap:
        return 3
    if s + gap == params.nilpotency:
        return 1 if gap > two_k else 2
    return 4 if gap == 1 else 5 if gap <= two_k else 6


def ideal_gap(params: Params, family: int, s: int, t: int | None,
              h: Poly = (), d: int = 0) -> int:
    """The gap t of the shape <a + u*f^s, f^(s+t)>: e - s for families
    1-2, whose f^e is zero, 0 for family 3, and t for families 4-6.
    This is the one place the printed families are told apart, so it
    rejects a descriptor whose s, gap, family and t do not fit together,
    or whose h is not a residue mod f^(gap//2) for f of degree d."""
    e = params.nilpotency
    gap = (e - s if family in (1, 2) else 0) if t is None else t
    if not (0 <= s <= s + gap <= e and _family(params, s, gap) == family
            and (t is None) == (family <= 3) and len(h) <= d * (gap // 2)
            and (not h or min(h) >= 0 and max(h) >> params.m == 0)):
        raise ValueError(f"malformed descriptor: family {family}, s {s}, t {t}, h {h}")
    return gap


def h_space_exponent(params: Params, family: int, s: int, t: int | None) -> int:
    """Exponent l such that h ranges over residues mod f^l (0 => h = 0 only)."""
    return ideal_gap(params, family, s, t) // 2


def ideal_blocks(params: Params) -> Iterator[tuple[int, int, int | None]]:
    """The (family, s, t) blocks of a factor's stream, in stream order.

    Block (family, s, t) holds q^l descriptors, one per residue h mod
    f^l, with l = h_space_exponent(params, family, s, t).
    """
    e = params.nilpotency
    for s in range(e):
        yield _family(params, s, e - s), s, None
    for s in range(e + 1):
        yield 3, s, None
    for t in range(1, e):
        for s in range(e - t):
            yield _family(params, s, t), s, t


def enumerate_ideals(
    params: Params, ctx: ChainCtx, factor_index: int = 1, start: int = 0
) -> Iterator[IdealDescriptor]:
    """Every ideal descriptor for one factor, exactly once, in order,
    from the start-th one on."""
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    for family, s, t, hs in _blocks_from(params, ctx, start):
        for h in hs:
            yield IdealDescriptor(factor_index, family, s, t, h)


def _blocks_from(params: Params, ctx: ChainCtx,
                 start: int) -> Iterator[tuple[int, int, int | None, Iterator[Poly]]]:
    """The (family, s, t) blocks of a factor's stream from its start-th
    descriptor on, each with iter_h's iterator of its h from there: the
    seek skips whole blocks by their size q^l and starts iter_h at the
    remaining index inside the block it lands in."""
    for family, s, t in ideal_blocks(params):
        ell = h_space_exponent(params, family, s, t)
        size = ctx.q ** ell
        if start < size:
            yield family, s, t, iter_h(ctx, ell, start)
        start = max(start - size, 0)


def ideal_size(params: Params, d: int, desc: IdealDescriptor) -> int:
    """Number of codewords contributed by one descriptor (exact)."""
    gap = ideal_gap(params, desc.family, desc.s, desc.t, desc.h, d)
    return 1 << (params.m * d * (2 * params.nilpotency - 2 * desc.s - gap))


def code_size(params: Params, factor_data: FactorData, code: CodeDescriptor) -> int:
    total = 1
    for ent, desc in zip(factor_data.entries, code.components, strict=True):
        total *= ideal_size(params, ent.degree, desc)
    return total


# ----------------------------------------------------------------------
# Generators and module rows for one descriptor
# ----------------------------------------------------------------------

def descriptor_generators(
    params: Params, ctx: ChainCtx, desc: IdealDescriptor
) -> list[Vec2]:
    """Ideal generators in K + uK, as pairs (a0, a1) meaning a0 + u*a1:
    [(a, f^s), (f^(s+t), 0)] for gap t, without the second when f^(s+t)
    is zero, and [(f^s, 0)] for gap 0."""
    s, h = desc.s, desc.h
    t = ideal_gap(params, desc.family, s, desc.t, h, ctx.d)
    fs = cr.c_reduce(ctx, ctx.f_pows[s])
    if not t:
        return [(fs, pr.P_ZERO)]
    a = pr.P_ZERO
    if t > 1 << params.k:
        a = cr.c_mul(ctx, ctx.u_root, ctx.f_pows[s])
    if h:
        a = pr.p_add(params.field, a, cr.c_mul(ctx, ctx.f_pows[s + (t + 1) // 2], h))
    rows = [(a, fs)]
    if s + t < params.nilpotency:
        rows.append((cr.c_reduce(ctx, ctx.f_pows[s + t]), pr.P_ZERO))
    return rows


def descriptor_module_rows(
    params: Params, ctx: ChainCtx, desc: IdealDescriptor
) -> list[Vec2]:
    """Generator rows of the matching K-submodule of K^2.

    These are the ideal generators, plus u*f^s for gap 0: the K-span of
    f^s alone misses it, the ideal <f^s> does not.
    """
    rows = descriptor_generators(params, ctx, desc)
    if not rows[0][1]:  # no u-part: gap 0, as every other gap has u*f^s, s < e
        rows.append((pr.P_ZERO, rows[0][0]))
    return rows


def ideal_membership_check(params: Params, ctx: ChainCtx, desc: IdealDescriptor) -> bool:
    """True iff the descriptor's module is stable under the u-action."""
    return cr.satisfies_u_closure(ctx, descriptor_module_rows(params, ctx, desc))


# ----------------------------------------------------------------------
# Whole-code streams (one descriptor per factor)
# ----------------------------------------------------------------------

def chain_contexts(params: Params, factor_data: FactorData) -> list[ChainCtx]:
    return [cr.make_chain_ctx(params, ent.f) for ent in factor_data.entries]


def code_runs(
    params: Params, ctxs: list[ChainCtx], counts: list[int], start: int = 0
) -> Iterator[tuple[tuple[IdealDescriptor, ...], tuple[int, int, int, int | None],
                        Iterator[Poly]]]:
    """All codes, from the start-th one on, in runs (lead, block, hs):
    the leading factors' descriptors, the (factor, family, s, t) of one
    block of the last factor, and the iterator of the block's h.

    Code i is a mixed-radix number of ideal indices, one per factor,
    with counts as radices and the last factor varying fastest.  The
    seek splits start into these digits; past the last factor's last
    block, the leading factors step like an odometer.
    """
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    digits = []
    for ctx, radix in reversed(list(zip(ctxs, counts, strict=True))):
        start, idx = divmod(start, radix)
        digits.append((ctx, idx))
    if start or not digits:
        return  # past the end, or no factors
    (last_ctx, idx), *lead = digits
    lead.reverse()
    streams = [enumerate_ideals(params, ctx, j, i) for j, (ctx, i) in enumerate(lead, 1)]
    current = [next(stream) for stream in streams]
    while True:
        descs = tuple(current)
        for family, s, t, hs in _blocks_from(params, last_ctx, idx):
            yield descs, (len(digits), family, s, t), hs
        idx = 0
        for j in reversed(range(len(streams))):
            if (desc := next(streams[j], None)) is not None:
                current[j] = desc
                break
            streams[j] = enumerate_ideals(params, lead[j][0], j + 1)
            current[j] = next(streams[j])
        else:
            return


def enumerate_codes(
    params: Params,
    factor_data: FactorData,
    ctxs: list[ChainCtx] | None = None,
    start: int = 0,
) -> Iterator[CodeDescriptor]:
    """All codes in code_runs' order, from the start-th one on."""
    if ctxs is None:
        ctxs = chain_contexts(params, factor_data)
    counts = factor_counts(params, [ent.degree for ent in factor_data.entries])
    for lead, (j, family, s, t), hs in code_runs(params, ctxs, counts, start):
        for h in hs:
            yield CodeDescriptor((*lead, IdealDescriptor(j, family, s, t, h)))


# ----------------------------------------------------------------------
# Self-dual codes of length 4 over GF(2^m)[u]/<u^4>
# ----------------------------------------------------------------------

def list_self_dual_length4(params: Params) -> list[CodeDescriptor]:
    """The self-dual codes at n=1, k=2, lam=2, delta=1 (any alpha).

    Exactly 1 + 2^m + 2*4^m of them, in four shapes: the fixed ideal
    <f^4>; family 5 with (s, t) = (3, 2), h any residue-field constant;
    family 5 with (s, t) = (2, 4), h any residue mod f^2; and family 6
    with (s, t) = (1, 6), h any residue mod f^3 whose digit 0 is
    alpha_root.  Here f = x + 1 and d = 1, so digit r is the constant r
    and those h are the residues numbered alpha_root + q*i, i < q^2.
    """
    if (params.n, params.k, params.lam, params.delta) != (1, 2, 2, 1):
        raise ValueError(
            "self-dual list is defined for n=1, k=2, lambda=2, delta=1 only; "
            f"got n={params.n}, k={params.k}, lambda={params.lam}, delta={params.delta}"
        )
    # delta = 1 makes the core polynomial x + 1 itself: nothing to factor.
    ctx = cr.ChainCtx(params.field, (1, 1), params.nilpotency)
    q = ctx.q
    out = [IdealDescriptor(1, 3, 4, None, ())]
    out += [IdealDescriptor(1, 5, 3, 2, h) for h in iter_h(ctx, 1)]
    out += [IdealDescriptor(1, 5, 2, 4, h) for h in iter_h(ctx, 2)]
    out += [IdealDescriptor(1, 6, 1, 6, next(iter_h(ctx, 3, params.alpha_root + q * i)))
            for i in range(q * q)]
    return [CodeDescriptor((desc,)) for desc in out]
