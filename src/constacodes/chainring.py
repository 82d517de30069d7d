"""Arithmetic in the chain ring K = GF(2^m)[x]/<f^e> and its u-extension.

f is monic irreducible of degree d and e is the nilpotency exponent, so
K is a finite chain ring: its ideals are exactly <f^l> for 0 <= l <= e.
Every element has a unique f-adic digit expansion with digits of degree
below d, and is a unit iff digit 0 is nonzero.  Elements are reduced
polynomials (tuples); a rank-2 module vector is a pair of them.

In the u-extension K + uK, u^2 = U = alpha^(-1) * (x^N + delta), so u
sends a0 + u*a1 to U*a1 + u*a0.  Squaring is additive in characteristic
2, so U = v^2 for v = alpha_root * (x^(N/2) + sqrt(delta)), and
v = alpha_root * C^(2^(k-1)) * f^(2^(k-1)) with C = (x^n + delta_root) / f
prime to f.  A context builds U, and v with its certificates, on first
use: satisfies_u_closure needs U alone, and only the family-1 and
family-6 generators (see enumerator) need v.

canonical_module_form reduces any generating set of a K-submodule of
K^2 to the invariants (t0, t1, a) that fix it (Howell, Lin. Multilin.
Algebra 19, 1986): <f^t0> is the projection to the first coordinate,
<f^t1> the ideal of second coordinates paired with 0, and a the second
coordinate paired with f^t0, reduced mod f^t1 (() when t0 = e).  The
module is the span of (f^t0, a) and (0, f^t1), and two generator sets
span the same submodule iff their triples are equal.

The form clears rows without dividing by the pivot (_pivot_form).  The
pivot (g0, g1) is a row whose g0 = w*f^t0, w a unit, has the least
valuation t0; f^(e-t0) times it is (0, f^(e-t0)*g1), and every other
row (a0, a1) becomes w*(a0, a1) - (a0/f^t0)*(g0, g1), whose second
coordinate is w*a1 - (a0/f^t0)*g1.  Scaling a row by a unit keeps the
span, so t1 is the least valuation of these second coordinates, found
without an inverse, and the module is the span of the pivot row and
(0, f^t1).  Only the canonical triple inverts w: a = w^-1 * g1 mod f^t1
needs w only modulo f^t1, and no inverse at all when g1 = 0 (always
so when t0 = e) or t1 = 0.  The extended gcd of w and f^t1 inverts w:
its cofactor of w, of degree below that of f^t1, is the reduced inverse
(von zur Gathen and Gerhard, Modern Computer Algebra, 3.2 and 4.2).

The form serves two jobs.  Equality of forms certifies that two
generator sets span the same module, which keeps the enumerated codes
distinct.  Membership reduces against the pivot row (_contains), and
membership decides u-stability: the u-action is K-linear, so the span
is u-stable iff the u-multiple of each generator lies in it
(satisfies_u_closure).

The certificate runs on packed ints (see polyring) from entry to
verdict: the context carries f^0 .. f^e packed as divisors
(packed_pows), the valuation pi_degree is the largest t with f^t | a,
found by a binary search whose every step divides only what the last
one left, each generator is packed once, the pivot row is found on the
packed rows, and each u-multiple is reduced against it without
unpacking or inverting anything.

iter_h is the one residue iterator: every walk over residues mod f^l
(the ideal enumeration, the self-dual list and the tests' submodule
walks) goes through it.  Residue number N is the sum of D(N_i) * f^i,
N_i the base-q digits of N, least significant first, and digit number
r < q, D(r), is the polynomial of degree below d whose coefficient i is
bits m*i .. m*i+m-1 of r (_residue, by Horner's rule).  D relabels
bits and multiplying by f^i is linear, so residue N is GF(2)-linear in
the bits of N: N -> N+1 flips bits 0 .. j-1, and residue N+1 is residue
N xor residue 2^j - 1.  A walk xors one such row per step, each built
on first use, so it keeps at most m*d*l rows and nothing of size q.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .gf2m import GF2m
from . import polyring as pr
from .polyring import Poly
from .params import Params

Vec2 = tuple[Poly, Poly]


class ChainCtx:
    """K = GF(2^m)[x]/<f^e> and f^0 .. f^e.  Given params, with f a
    factor of their core polynomial, it builds the u-extension on first
    use; without them, reading the u-extension raises ValueError."""

    def __init__(self, field: GF2m, f: Poly, e: int, params: Params | None = None) -> None:
        d = pr.deg(f)
        if d < 1:
            raise ValueError("f must be nonconstant")
        if e < 1:
            raise ValueError("e must be >= 1")
        self.field, self.f, self.d, self.e, self.params = field, f, d, e, params
        pows = [pr.P_ONE]
        for _ in range(e):
            pows.append(pr.p_mul(field, pows[-1], f))
        self.f_pows = tuple(pows)

    @property
    def q(self) -> int:
        """Residue field size 2^(m*d)."""
        return 1 << (self.field.m * self.d)

    @cached_property
    def packed_pows(self) -> tuple[pr.Divisor, ...]:
        """f^0 .. f^e packed (see polyring) as divisors; rows[0] is f^t."""
        F = self.field
        return tuple(pr.k_divisor(F, pr.pack(F, p)) for p in self.f_pows)

    @cached_property
    def u_squared(self) -> Poly:
        """u^2 = alpha^(-1) * (x^N + delta) modulo f^e."""
        params = self.params
        if params is None:
            raise ValueError("context carries no u-extension")
        return self._binomial(params.length, params.delta, self.field.inv(params.alpha))

    @cached_property
    def u_root(self) -> Poly:
        """v = alpha_root * (x^(N/2) + sqrt(delta)) modulo f^e, certified:
        its valuation is 2^(k-1), as it is iff f is a squarefree divisor of
        the core polynomial, and v^2 == u^2 mod f^e."""
        u2, params, F = self.u_squared, self.params, self.field  # ValueError if no params
        v = self._binomial(params.length // 2, F.sqrt(params.delta), params.alpha_root)
        if (val := pi_degree(self, v)) != 1 << (params.k - 1):
            raise ArithmeticError(f"{self.f} is no simple factor of the core polynomial "
                                  f"(v has valuation {val})")
        if c_mul(self, v, v) != u2:
            raise ArithmeticError("u^2 congruence failed; v^2 differs from u^2")
        return v

    def _binomial(self, exponent: int, c: int, scale: int) -> Poly:
        """scale * (x^exponent + c) modulo f^e, by one power of x."""
        F = self.field
        xe = pr.k_powmod(F, pr.pack(F, pr.P_X), exponent, self.packed_pows[self.e])
        return pr.p_scale(F, pr.p_add(F, pr.unpack(F, xe), (c,)), scale)


def make_chain_ctx(params: Params, f: Poly) -> ChainCtx:
    """Context for one irreducible factor f of the core polynomial."""
    return ChainCtx(params.field, f, params.nilpotency, params)


# ----------------------------------------------------------------------
# Element operations
# ----------------------------------------------------------------------

def c_reduce(ctx: ChainCtx, a: Poly) -> Poly:
    if len(a) <= ctx.d * ctx.e:
        return a
    F = ctx.field
    return pr.unpack(F, pr.k_mod(F, pr.pack(F, a), ctx.packed_pows[ctx.e]))


def c_mul(ctx: ChainCtx, a: Poly, b: Poly) -> Poly:
    return c_reduce(ctx, pr.p_mul(ctx.field, a, b))


def c_inv(ctx: ChainCtx, a: Poly) -> Poly:
    """Inverse of a unit."""
    F = ctx.field
    return pr.unpack(F, _unit_inverse(ctx, pr.pack(F, a), ctx.e))


def _unit_inverse(ctx: ChainCtx, w: int, t: int) -> int:
    """Inverse of a packed unit modulo f^t, 1 <= t <= e, reduced mod f^t:
    the cofactor of w in the extended gcd of w mod f^t and f^t."""
    F, dv = ctx.field, ctx.packed_pows[t]
    g, x = pr.k_xgcd(F, pr.k_mod(F, w, dv), dv.rows[0])
    if g != 1:
        raise ZeroDivisionError("element is not a unit (digit 0 vanishes)")
    return x


def adic_digits(ctx: ChainCtx, a: Poly) -> tuple[Poly, ...]:
    """The unique digits b_i (deg < d) with a = sum b_i * f^i, i < e."""
    digits = []
    rem = a
    for _ in range(ctx.e):
        rem, digit = pr.p_divmod(ctx.field, rem, ctx.f)
        digits.append(digit)
    return tuple(digits)


def pi_degree(ctx: ChainCtx, a: Poly) -> int:
    """Index of the first nonzero f-adic digit of a reduced element; e
    for the zero element."""
    return _valuation(ctx, pr.pack(ctx.field, a))


def _valuation(ctx: ChainCtx, a: int) -> int:
    """The largest t <= e with f^t dividing the packed element a, by
    binary search on what is left: a = f^lo * b, and one division of b
    by f^(mid-lo) either leaves no remainder, and b becomes the
    quotient, or shows v(b) < mid-lo, and b becomes the remainder,
    which agrees with b below that and so has its valuation."""
    F, pows = ctx.field, ctx.packed_pows
    lo, hi = 0, ctx.e
    while lo < hi:
        mid = (lo + hi + 1) // 2
        q, r = pr.k_divmod(F, a, pows[mid - lo])
        if r:
            a, hi = r, mid - 1
        else:
            a, lo = q, mid
    return lo


# ----------------------------------------------------------------------
# Canonical forms for K-submodules of K^2
# ----------------------------------------------------------------------

CanonForm = tuple[int, int, Poly]


def _pivot_form(ctx: ChainCtx, rows: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """(t0, t1, w, g1) of the K-span of the packed rows, by the clearing
    of the module docstring: the pivot row is (w*f^t0, g1), and w = 1,
    g1 = 0 when t0 = e.  The span is that of (w*f^t0, g1) and (0, f^t1)."""
    F, e, pows = ctx.field, ctx.e, ctx.packed_pows
    # Pivot for column 0: smallest pi-degree among first coordinates.
    degs = [_valuation(ctx, a0) for a0, _ in rows]
    t0 = min(degs, default=e)
    if t0 == e:  # no first coordinate survives mod f^e
        return e, min((_valuation(ctx, a1) for _, a1 in rows), default=e), 1, 0
    p = degs.index(t0)
    g0, g1 = rows[p]
    w = pr.k_divmod(F, g0, pows[t0])[0]  # exact, w a unit
    # f^(e-t0) times the pivot is (0, f^(e-t0)*g1).
    t1 = min(e, e - t0 + _valuation(ctx, g1))
    # w*(a0, a1) - (a0/f^t0)*(g0, g1) clears each other row's first coordinate.
    for a0, a1 in rows[:p] + rows[p + 1:]:
        qfac = pr.k_divmod(F, a0, pows[t0])[0]  # exact by minimality of t0
        b = pr.k_mul(F, w, a1) ^ pr.k_mul(F, qfac, g1)
        t1 = min(t1, _valuation(ctx, pr.k_mod(F, b, pows[e])))
    return t0, t1, w, g1


def canonical_module_form(ctx: ChainCtx, gens) -> CanonForm:
    """The invariants (t0, t1, a) of the K-span of gens in K^2: the
    pivot form of the packed rows, normalized to a = w^-1 * g1 mod f^t1;
    only a is unpacked."""
    F = ctx.field
    t0, t1, w, g1 = _pivot_form(ctx, [(pr.pack(F, a0), pr.pack(F, a1)) for a0, a1 in gens])
    if not (t1 and g1):  # a = 0, with no inverse; always so when t0 = e
        return t0, t1, ()
    a = pr.k_mul(F, _unit_inverse(ctx, w, t1), g1)
    return t0, t1, pr.unpack(F, pr.k_mod(F, a, ctx.packed_pows[t1]))


def module_size(ctx: ChainCtx, form: CanonForm) -> int:
    """Number of elements of the module with the given canonical form."""
    t0, t1, _ = form
    return ctx.q ** ((ctx.e - t0) + (ctx.e - t1))


def _contains(ctx: ChainCtx, t0: int, t1: int, w: int, g1: int, v0: int, v1: int) -> bool:
    """Whether packed (v0, v1) lies in the span of (w*f^t0, g1) and
    (0, f^t1), w a unit: f^t0 | v0 and f^t1 | w*v1 - (v0/f^t0)*g1.

    That span is the module of canonical form (t0, t1, w^-1 * g1), and
    scaling by the unit w keeps a valuation, so w = 1 is the test
    against a canonical form.  v0/f^t0 is fixed only modulo f^(e-t0),
    and f^(e-t0)*g1 lies in <f^t1>, so every choice gives the verdict.
    """
    F, pows = ctx.field, ctx.packed_pows
    qfac, rem = pr.k_divmod(F, v0, pows[t0])
    return not rem and not pr.k_mod(F, pr.k_mul(F, w, v1) ^ pr.k_mul(F, qfac, g1), pows[t1])


def satisfies_u_closure(ctx: ChainCtx, gens) -> bool:
    """Whether the K-span of gens is stable under the u-action.

    Stability is exactly the condition for the span, read through
    (a0, a1) -> a0 + u*a1, to be an ideal of K + uK.  Multiplication by
    u is K-linear, so the span is stable iff u*g lies in it for every
    generator g; each u*g = (u^2*a1, a0) is tested, on packed ints,
    against the pivot row, so no unit is inverted.
    """
    F, modulus = ctx.field, ctx.packed_pows[ctx.e]
    rows = [(pr.pack(F, a0), pr.pack(F, a1)) for a0, a1 in gens]
    t0, t1, w, g1 = _pivot_form(ctx, rows)
    u2 = pr.pack(F, ctx.u_squared)
    return all(_contains(ctx, t0, t1, w, g1, pr.k_mod(F, pr.k_mul(F, u2, a1), modulus), a0)
               for a0, a1 in rows)


def _residue(ctx: ChainCtx, n: int) -> int:
    """Residue number n, packed: the sum of D(n_i) * f^i over the base-q
    digits n_i of n, by Horner's rule in the packed f."""
    F, md = ctx.field, ctx.field.m * ctx.d
    f, mask = pr.pack(F, ctx.f), (1 << F.m) - 1
    acc = 0
    for shift in range(md * ((n.bit_length() - 1) // md), -1, -md):
        if acc:
            acc = pr.k_mul(F, acc, f)
        r = n >> shift
        acc ^= sum(((r >> F.m * i) & mask) << F.lane * i for i in range(ctx.d))
    return acc


def iter_h(ctx: ChainCtx, ell: int, start: int = 0) -> Iterator[Poly]:
    """Residues mod f^ell in the order of the module docstring, from
    the start-th one on (ell <= 0: the zero residue only)."""
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    end = ctx.q ** max(ell, 0)
    if start >= end:
        return
    F, h, rows = ctx.field, _residue(ctx, start), {}
    for n in range(start, end - 1):
        yield pr.unpack(F, h)
        j = (n ^ (n + 1)).bit_length()
        row = rows.get(j)
        if row is None:
            row = rows[j] = _residue(ctx, (1 << j) - 1)
        h ^= row
    yield pr.unpack(F, h)
