"""Enumerate and count the ideal families of the u-extended chain rings.

For one irreducible factor f of degree d, with e = 2^k * lam and
half = 2^(k-1) * lam, every ideal of K + uK falls in exactly one of six
families.  With w the context unit (u^2 = w^2 * f^(2^k)) and h ranging
over residues mod a power of f, the families are:

  1. <w*f^(2^(k-1)+s) + f^(half+ceil(s/2))*h + u*f^s>,
         0 <= s <= 2^k*(lam-1)-1,      h mod f^(half-ceil(s/2))
  2. <f^(half+ceil(s/2))*h + u*f^s>,
         2^k*(lam-1) <= s <= e-1,      h mod f^(half-ceil(s/2))
  3. <f^s>,                              0 <= s <= e
  4. <u*f^s, f^(s+1)>,                   0 <= s <= e-2
  5. <f^(s+ceil(t/2))*h + u*f^s, f^(s+t)>,
         2 <= t <= 2^k,      0 <= s <= e-1-t,   h mod f^(floor(t/2))
  6. <w*f^(2^(k-1)+s) + f^(s+ceil(t/2))*h + u*f^s, f^(s+t)>,
         2^k+1 <= t <= e-1,  0 <= s <= e-1-t,   h mod f^(floor(t/2))

The family 1/2 boundary 2^k*(lam-1) is where f^(2^k+s) becomes zero:
below it the u-action forces the w-term, at and above it the w-term
would be redundant.  (For lam = 2 the boundary coincides with half.)
The u-closure check below certifies every emitted descriptor, so a
wrong boundary cannot pass the test suite.

Codeword counts: families 1-2 give 2^(m*d*(e-s)); family 3 gives
2^(m*d*(2e-2s)); family 4 gives 2^(m*d*(2e-2s-1)); families 5-6 give
2^(m*d*(2e-2s-t)).  The family-5 exponent follows the pi-degree size
law for the two generator rows (degrees s and s+t); the materialization
oracle in the test suite pins it down independently.

Descriptors stream in a fixed total order: family, then t, then s,
then h; h runs over chainring.iter_h, so h-residues are ordered by
their digit expansions, least significant digit first, digits by
packed coefficient value.  Streams are lazy so astronomically large
enumerations can be paged.

Every stream can start at any index.  Block (family, s, t) holds
exactly q^l descriptors (l = h_space_exponent), so enumerate_ideals
skips whole blocks and starts iter_h inside the block it lands in.  A
code is a mixed-radix number over the factors, with the per-factor
ideal counts as radices, so enumerate_codes splits its start index into
one index per factor.  A seek costs O(blocks + r) for r factors,
whatever the index; walking there would cost O(index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import chainring as cr
from . import polyring as pr
from .chainring import ChainCtx, Vec2, iter_h
from .factorizer import FactorData
from .params import Params
from .polyring import Poly


@dataclass(frozen=True)
class IdealDescriptor:
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


@dataclass(frozen=True)
class CodeDescriptor:
    """One code: a choice of ideal descriptor per factor."""

    components: tuple[IdealDescriptor, ...]

    def as_dict(self) -> dict:
        return {"components": [c.as_dict() for c in self.components]}


# ----------------------------------------------------------------------
# Counting formulas
# ----------------------------------------------------------------------

def count_ideals_sum_form(q: int, k: int, lam: int) -> int:
    """Sum over i of (1+4i) * q^(2^(k-1)*lam - i)."""
    if q < 2 or k < 2 or lam < 2:
        raise ValueError("need q >= 2, k >= 2, lam >= 2")
    half = (1 << (k - 1)) * lam
    return sum((1 + 4 * i) * q ** (half - i) for i in range(half + 1))


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
    of the code stream."""
    return [count_ideals(1 << (params.m * d), params.k, params.lam) for d in degrees]


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

def h_space_exponent(params: Params, family: int, s: int, t: int | None) -> int:
    """Exponent l such that h ranges over residues mod f^l (0 => h = 0 only)."""
    half = (1 << (params.k - 1)) * params.lam
    if family in (1, 2):
        return half - (s + 1) // 2
    if family in (5, 6):
        assert t is not None
        return t // 2
    return 0


def ideal_blocks(params: Params) -> Iterator[tuple[int, int, int | None]]:
    """The (family, s, t) blocks of a factor's stream, in stream order.

    Block (family, s, t) holds q^l descriptors, one per residue h mod
    f^l, with l = h_space_exponent(params, family, s, t).
    """
    e = params.nilpotency
    two_k = 1 << params.k
    boundary = two_k * (params.lam - 1)
    for s in range(boundary):
        yield 1, s, None
    for s in range(boundary, e):
        yield 2, s, None
    for s in range(e + 1):
        yield 3, s, None
    for s in range(e - 1):
        yield 4, s, 1
    for t in range(2, two_k + 1):
        for s in range(e - t):
            yield 5, s, t
    for t in range(two_k + 1, e):
        for s in range(e - t):
            yield 6, s, t


def enumerate_ideals(
    params: Params, ctx: ChainCtx, factor_index: int = 1, start: int = 0
) -> Iterator[IdealDescriptor]:
    """Every ideal descriptor for one factor, exactly once, in order,
    from the start-th one on.

    The seek skips whole blocks by their size q^l, then starts iter_h
    at the remaining index inside the block it lands in.
    """
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    for family, s, t in ideal_blocks(params):
        ell = h_space_exponent(params, family, s, t)
        size = ctx.q ** ell
        if start >= size:
            start -= size
            continue
        for h in iter_h(ctx, ell, start):
            yield IdealDescriptor(factor_index, family, s, t, h)
        start = 0


def ideal_size(params: Params, d: int, desc: IdealDescriptor) -> int:
    """Number of codewords contributed by one descriptor (exact)."""
    e = params.nilpotency
    md = params.m * d
    fam, s, t = desc.family, desc.s, desc.t
    if fam in (1, 2):
        expo = e - s
    elif fam == 3:
        expo = 2 * e - 2 * s
    elif fam == 4:
        expo = 2 * e - 2 * s - 1
    elif fam in (5, 6):
        assert t is not None
        expo = 2 * e - 2 * s - t
    else:
        raise ValueError(f"unknown family {fam}")
    return 1 << (md * expo)


def code_size(params: Params, factor_data: FactorData, code: CodeDescriptor) -> int:
    total = 1
    for ent, desc in zip(factor_data.entries, code.components):
        total *= ideal_size(params, ent.degree, desc)
    return total


# ----------------------------------------------------------------------
# Generators and module rows for one descriptor
# ----------------------------------------------------------------------

def _lead_entry(params: Params, ctx: ChainCtx, desc: IdealDescriptor) -> Poly:
    """First coordinate of the leading generator row."""
    F = params.field
    half = (1 << (params.k - 1)) * params.lam
    fam, s, t, h = desc.family, desc.s, desc.t, desc.h
    acc = pr.P_ZERO
    if fam in (1, 6):
        acc = cr.c_mul(ctx, ctx.u2_unit, ctx.f_pows[(1 << (params.k - 1)) + s])
    if fam in (1, 2):
        hidx = half + (s + 1) // 2
    else:
        assert t is not None
        hidx = s + (t + 1) // 2
    if h:
        acc = pr.p_add(F, acc, cr.c_mul(ctx, ctx.f_pows[hidx], h))
    return acc


def descriptor_generators(
    params: Params, ctx: ChainCtx, desc: IdealDescriptor
) -> list[Vec2]:
    """Ideal generators in K + uK, as pairs (a0, a1) meaning a0 + u*a1.

    At most two; families 1-3 need one.
    """
    fam, s, t = desc.family, desc.s, desc.t
    fs = cr.c_reduce(ctx, ctx.f_pows[s])
    if fam in (1, 2):
        return [(_lead_entry(params, ctx, desc), fs)]
    if fam == 3:
        return [(fs, pr.P_ZERO)]
    if fam == 4:
        return [(pr.P_ZERO, fs), (cr.c_reduce(ctx, ctx.f_pows[s + 1]), pr.P_ZERO)]
    assert t is not None
    return [
        (_lead_entry(params, ctx, desc), fs),
        (cr.c_reduce(ctx, ctx.f_pows[s + t]), pr.P_ZERO),
    ]


def descriptor_module_rows(
    params: Params, ctx: ChainCtx, desc: IdealDescriptor
) -> list[Vec2]:
    """Generator rows of the matching K-submodule of K^2.

    These are the ideal generators, plus u*f^s for family 3: the
    K-span of f^s alone misses it, the ideal <f^s> does not.
    """
    rows = descriptor_generators(params, ctx, desc)
    if desc.family == 3:
        rows.append((pr.P_ZERO, rows[0][0]))
    return rows


def ideal_membership_check(params: Params, ctx: ChainCtx, desc: IdealDescriptor) -> bool:
    """True iff the descriptor's module is stable under the u-action."""
    return cr.satisfies_u_closure(ctx, descriptor_module_rows(params, ctx, desc))


# ----------------------------------------------------------------------
# Whole-code streams (one descriptor per factor)
# ----------------------------------------------------------------------

def chain_contexts(params: Params, factor_data: FactorData) -> list[ChainCtx]:
    return [
        cr.make_chain_ctx(params, ent.f, ent.cofactor) for ent in factor_data.entries
    ]


def enumerate_codes(
    params: Params,
    factor_data: FactorData,
    ctxs: list[ChainCtx] | None = None,
    start: int = 0,
) -> Iterator[CodeDescriptor]:
    """All codes in a fixed order, from the start-th one on.

    Code i is a mixed-radix number whose digits are ideal indices, one
    per factor, with the factors' ideal counts as radices and the last
    factor varying fastest.  The seek splits start into these digits;
    the stream then runs like an odometer: a factor whose stream runs
    out restarts at index 0 and the factor before it steps forward.
    """
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    if ctxs is None:
        ctxs = chain_contexts(params, factor_data)
    degrees = [ent.degree for ent in factor_data.entries]
    indices = []
    for radix in reversed(factor_counts(params, degrees)):
        start, idx = divmod(start, radix)
        indices.append(idx)
    if start or not indices:
        return  # past the end, or no factors
    indices.reverse()
    streams = [
        enumerate_ideals(params, ctx, j, idx)
        for j, (ctx, idx) in enumerate(zip(ctxs, indices), start=1)
    ]
    current = [next(stream) for stream in streams]
    while True:
        yield CodeDescriptor(tuple(current))
        j = len(streams) - 1
        while (desc := next(streams[j], None)) is None:
            if j == 0:
                return
            streams[j] = enumerate_ideals(params, ctxs[j], j + 1)
            current[j] = next(streams[j])
            j -= 1
        current[j] = desc


# ----------------------------------------------------------------------
# Self-dual codes of length 4 over GF(2^m)[u]/<u^4>
# ----------------------------------------------------------------------

def list_self_dual_length4(params: Params) -> list[CodeDescriptor]:
    """The self-dual codes at n=1, k=2, lam=2, delta=1 (any alpha).

    Exactly 1 + 2^m + 2*4^m of them, in four shapes: the fixed ideal
    <f^4>; family 5 with (s, t) = (3, 2), h any residue-field constant;
    family 5 with (s, t) = (2, 4), h any residue mod f^2; and family 6
    with (s, t) = (1, 6), where h has its constant digit pinned to
    alpha_root and two free digits.
    """
    if (params.n, params.k, params.lam, params.delta) != (1, 2, 2, 1):
        raise ValueError(
            "self-dual list is defined for n=1, k=2, lambda=2, delta=1 only; "
            f"got n={params.n}, k={params.k}, lambda={params.lam}, delta={params.delta}"
        )
    F = params.field
    # delta = 1 makes the core polynomial x + 1 itself: nothing to factor.
    ctx = cr.make_plain_ctx(F, (1, 1), params.nilpotency)

    out = [CodeDescriptor((IdealDescriptor(1, 3, 4, None, ()),))]
    for c in F.elements():
        out.append(CodeDescriptor((IdealDescriptor(1, 5, 3, 2, pr.p_const(c)),)))
    for h in iter_h(ctx, 2):
        out.append(CodeDescriptor((IdealDescriptor(1, 5, 2, 4, h),)))
    for h_free in iter_h(ctx, 2):
        shifted = pr.p_mul(F, h_free, ctx.f_pows[1])
        h = pr.p_add(F, pr.p_const(params.alpha_root), shifted)
        out.append(CodeDescriptor((IdealDescriptor(1, 6, 1, 6, h),)))
    return out
