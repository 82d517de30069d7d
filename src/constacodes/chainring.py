"""Arithmetic in the chain ring K = GF(2^m)[x]/<f^e> and its u-extension.

f is monic irreducible of degree d and e is the nilpotency exponent, so
K is a finite chain ring: its ideals are exactly <f^l> for 0 <= l <= e.
Every element has a unique f-adic digit expansion with digits of degree
below d, and is a unit iff digit 0 is nonzero.  Elements are reduced
polynomials (tuples); a rank-2 module vector is a pair of them.

In the u-extension K + uK, u^2 = U = w^2 * f^(2^k) for the context's
unit w, so u sends a0 + u*a1 to U*a1 + u*a0; make_chain_ctx checks U
against the ring's u^2, and satisfies_u_closure needs nothing more.

canonical_module_form reduces any generating set of a K-submodule of
K^2 to the invariants (t0, t1, a) that fix it (Howell, Lin. Multilin.
Algebra 19, 1986): <f^t0> is the projection to the first coordinate,
<f^t1> the ideal of second coordinates paired with 0, and a the second
coordinate paired with f^t0, reduced mod f^t1 (() when t0 = e).  The
module is the span of (f^t0, a) and (0, f^t1), and two generator sets
span the same submodule iff their triples are equal.

The form clears rows without dividing by the pivot.  The pivot (g0,
g1) is a row whose g0 = w*f^t0, w a unit, has the least valuation t0;
f^(e-t0) times it is (0, f^(e-t0)*g1), and every other row (a0, a1)
becomes w*(a0, a1) - (a0/f^t0)*(g0, g1), whose second coordinate is
w*a1 - (a0/f^t0)*g1.  Scaling a row by a unit keeps the span, so t1 is
the least valuation of these second coordinates, found without an
inverse.  Only a = w^-1 * g1 mod f^t1 needs one, so w is inverted only
modulo f^t1, and not at all when t0 = e or t1 = 0: polyring.k_invmod
inverts it modulo f, and Newton steps lift that to f^t1 (von zur
Gathen and Gerhard, Modern Computer Algebra, 9.1).

The form serves two jobs.  Equality of forms certifies that two
generator sets span the same module, which keeps the enumerated codes
distinct.  Reduction against a form decides membership
(_contains), and membership decides u-stability: the u-action is
K-linear, so the span is u-stable iff the u-multiple of each generator
lies in it (satisfies_u_closure).

The certificate runs on packed ints (see polyring) from entry to
verdict: the context carries f^0 .. f^e packed as divisors
(packed_pows), the valuation pi_degree is the largest t with f^t | a,
found by binary search over them, the form is computed on the packed
rows, and each u-multiple is reduced against it without unpacking.

iter_h is the one residue iterator: every walk over residues mod f^l
(the ideal enumeration, the self-dual list and the tests' submodule
walks) goes through it.  Residue number N is the sum of D(N_i) * f^i,
N_i the base-q digits of N, least significant first, and digit number
r < q, D(r), is the polynomial of degree below d whose coefficient i is
bits m*i .. m*i+m-1 of r.  Every digit and residue is computed from its
number; nothing of size q is stored.
"""

from __future__ import annotations

from functools import cached_property
from operator import xor
from typing import Iterator

from .gf2m import GF2m
from . import polyring as pr
from .polyring import Poly
from .params import Params

Vec2 = tuple[Poly, Poly]


class ChainCtx:
    def __init__(self, field: GF2m, f: Poly, d: int, e: int, f_pows: tuple[Poly, ...],
                 u2_unit: Poly | None = None, u_squared: Poly | None = None) -> None:
        self.field, self.f, self.d, self.e = field, f, d, e
        self.f_pows = f_pows          # f^0 .. f^e
        self.u2_unit = u2_unit        # the unit w with u^2 = w^2 * f^(2^k)
        self.u_squared = u_squared

    @property
    def q(self) -> int:
        """Residue field size 2^(m*d)."""
        return 1 << (self.field.m * self.d)

    @cached_property
    def packed_pows(self) -> tuple[pr.Divisor, ...]:
        """f^0 .. f^e packed (see polyring) as divisors; rows[0] is f^t."""
        F = self.field
        return tuple(pr.k_divisor(F, pr.pack(F, p)) for p in self.f_pows)


def make_plain_ctx(field: GF2m, f: Poly, e: int) -> ChainCtx:
    """Chain ring context without the u-extension (no unit attached)."""
    d = pr.deg(f)
    if d < 1:
        raise ValueError("f must be nonconstant")
    if e < 1:
        raise ValueError("e must be >= 1")
    pows = [pr.P_ONE]
    for _ in range(e):
        pows.append(pr.p_mul(field, pows[-1], f))
    return ChainCtx(field, f, d, e, tuple(pows))


def make_chain_ctx(params: Params, f: Poly, cofactor: Poly) -> ChainCtx:
    """Context for one irreducible factor f of the core polynomial.

    Attaches the unit w = alpha_root * cofactor^(2^(k-1)) and checks
    the defining congruence

        w^2 * f^(2^k)  ==  alpha^(-1) * (x^n + delta_root)^(2^k)

    modulo f^e.  A failure here means the factor data upstream is
    inconsistent.
    """
    F = params.field
    e = params.nilpotency
    base = make_plain_ctx(F, f, e)
    modulus = base.f_pows[e]
    w = pr.p_powmod(F, cofactor, 1 << (params.k - 1), modulus)
    w = pr.p_mod(F, pr.p_scale(F, w, params.alpha_root), modulus)
    if not pr.p_mod(F, w, f):  # digit 0 of w vanishes
        raise ArithmeticError("u^2 unit is not invertible; cofactor shares a root with f")
    u2 = pr.p_mod(F, pr.p_mul(F, pr.p_mul(F, w, w), base.f_pows[1 << params.k]), modulus)
    expect = pr.p_mod(F, params.u_squared_poly, modulus)
    if u2 != expect:
        raise ArithmeticError("u^2 congruence failed; upstream factorization is broken")
    return ChainCtx(F, f, base.d, e, base.f_pows, w, u2)


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
    """Inverse of a packed unit modulo f^t, 1 <= t <= e, lifted from f
    as the module docstring says: x -> w*x^2 modulo f^(2k), capped at
    f^t.  In characteristic 2, if w*x = 1 + h with f^k dividing h, then
    w*(w*x^2) = (1 + h)^2 = 1 + h^2."""
    F, pows = ctx.field, ctx.packed_pows
    x = pr.k_mod(F, w, pows[1])
    if not x:
        raise ZeroDivisionError("element is not a unit (digit 0 vanishes)")
    x = pr.k_invmod(F, x, pows[1])
    k = 1
    while k < t:
        k = min(2 * k, t)
        x = pr.k_mod(F, pr.k_mul(F, w, pr.k_sqr(F, x)), pows[k])
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
    binary search: f^t divides a for every t up to it and none above."""
    F, pows = ctx.field, ctx.packed_pows
    lo, hi = 0, ctx.e
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pr.k_mod(F, a, pows[mid]):
            hi = mid - 1
        else:
            lo = mid
    return lo


# ----------------------------------------------------------------------
# Canonical forms for K-submodules of K^2
# ----------------------------------------------------------------------

CanonForm = tuple[int, int, Poly]


def canonical_module_form(ctx: ChainCtx, gens) -> CanonForm:
    """The invariants (t0, t1, a) of the K-span of gens in K^2, by the
    pivot-free clearing of the module docstring, on the packed rows;
    only a is unpacked."""
    F, e, pows = ctx.field, ctx.e, ctx.packed_pows
    rows = [(pr.pack(F, g[0]), pr.pack(F, g[1])) for g in gens if g[0] or g[1]]

    # Pivot for column 0: smallest pi-degree among first coordinates.
    degs = [_valuation(ctx, g0) for g0, _ in rows]
    t0 = min(degs, default=e)
    if t0 == e:  # no first coordinate survives mod f^e
        return e, min((_valuation(ctx, a1) for _, a1 in rows), default=e), ()
    g0, g1 = rows.pop(degs.index(t0))
    w = pr.k_divmod(F, g0, pows[t0])[0]  # exact, w a unit
    # f^(e-t0) times the pivot is (0, f^(e-t0)*g1).
    t1 = min(e, e - t0 + _valuation(ctx, g1))
    # w*(a0, a1) - (a0/f^t0)*(g0, g1) clears each other row's first coordinate.
    for a0, a1 in rows:
        qfac = pr.k_divmod(F, a0, pows[t0])[0]  # exact by minimality of t0
        b = pr.k_mul(F, w, a1) ^ pr.k_mul(F, qfac, g1)
        t1 = min(t1, _valuation(ctx, pr.k_mod(F, b, pows[e])))
    if t1 == 0:
        return t0, 0, ()
    a = pr.k_mul(F, _unit_inverse(ctx, w, t1), g1)
    return t0, t1, pr.unpack(F, pr.k_mod(F, a, pows[t1]))


def module_size(ctx: ChainCtx, form: CanonForm) -> int:
    """Number of elements of the module with the given canonical form."""
    t0, t1, _ = form
    return ctx.q ** ((ctx.e - t0) + (ctx.e - t1))


def _contains(ctx: ChainCtx, t0: int, t1: int, a: int, v0: int, v1: int) -> bool:
    """Whether packed (v0, v1) lies in the module of canonical form
    (t0, t1, a): f^t0 | v0 and f^t1 | v1 - (v0/f^t0)*a.

    v = (c*f^t0, b) is reduced by c times (f^t0, a); c is fixed only
    modulo f^(e-t0), and only in a canonical form does every choice
    leave the same remainder mod f^t1.
    """
    F, pows = ctx.field, ctx.packed_pows
    qfac, rem = pr.k_divmod(F, v0, pows[t0])
    return not rem and not pr.k_mod(F, v1 ^ pr.k_mul(F, qfac, a), pows[t1])


def satisfies_u_closure(ctx: ChainCtx, gens) -> bool:
    """Whether the K-span of gens is stable under the u-action.

    Stability is exactly the condition for the span, read through
    (a0, a1) -> a0 + u*a1, to be an ideal of K + uK.  Multiplication by
    u is K-linear, so the span is stable iff u*g lies in it for every
    generator g; each u*g = (u^2*a1, a0) is tested, on packed ints,
    against the one canonical form.
    """
    if ctx.u_squared is None:
        raise ValueError("context carries no u-extension")
    gens = list(gens)
    t0, t1, a = canonical_module_form(ctx, gens)
    F, modulus = ctx.field, ctx.packed_pows[ctx.e]
    a, u2 = pr.pack(F, a), pr.pack(F, ctx.u_squared)
    return all(
        _contains(ctx, t0, t1, a,
                  pr.k_mod(F, pr.k_mul(F, u2, pr.pack(F, a1)), modulus), pr.pack(F, a0))
        for a0, a1 in gens
    )


def _digit(m: int, r: int) -> Poly:
    """Digit number r < q: coefficient i is bits m*i .. m*i+m-1 of r."""
    out, mask = [], (1 << m) - 1
    while r:
        out.append(r & mask)
        r >>= m
    return tuple(out)


def iter_h(ctx: ChainCtx, ell: int, start: int = 0) -> Iterator[Poly]:
    """Residues mod f^ell in the order of the module docstring, from
    the start-th one on (ell <= 0: the zero residue only).

    Digit 0 varies fastest and its term is the digit itself, so each
    run of q residues shares one sum of the higher terms.  That sum is
    zero or of degree >= d, above every digit, so adding a digit only
    flips its low coefficients.
    """
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    if ell <= 0:
        if start == 0:
            yield pr.P_ZERO
        return
    F, m, q = ctx.field, ctx.field.m, ctx.q
    high_start, low_start = divmod(start, q)
    for high in range(high_start, q ** (ell - 1)):
        base = pr.P_ZERO
        c = high
        for i in range(1, ell):
            c, r = divmod(c, q)
            if r:
                base = pr.p_add(F, base, pr.p_mul(F, _digit(m, r), ctx.f_pows[i]))
        for r in range(low_start, q):
            digit = _digit(m, r)
            yield tuple(map(xor, base, digit)) + base[len(digit):] if base else digit
        low_start = 0
