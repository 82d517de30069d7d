"""Factor x^n + c (n odd, c nonzero) over GF(2^m) and build split data.

n odd makes x^n + c squarefree (its derivative x^(n-1) is prime to it),
so it has exactly r distinct monic irreducible factors, r the number of
q-cyclotomic cosets below, whose sizes factor_degrees gives first.
They steer the split: the distinct-degree gcd runs only at degrees that
occur, and the largest degree's part is what is left (von zur Gathen
and Gerhard, Modern Computer Algebra, 14.2-14.3).  Equal-degree
splitting uses the absolute trace map h + h^2 + h^4 + ... down to
GF(2).  They also certify it: r monic nonconstant parts with product
x^n + c are all irreducible, so no part pays Rabin's test.

build_factor_data keeps, for every factor f_j of g = x^n + c, only f_j
and its degree d_j: all that counting and enumeration need.  The exact
cofactors C_j = g / f_j, and from them the orthogonal idempotents eps_j
of GF(2^m)[x]/<M>, M = g^e with e = 2^k * lam, are built on first use.
As n is odd, x * g' = x^n = c (mod g) and g' = sum_l f_l' * C_l, so

    eps0_j = x * f_j' * C_j / c  mod g

is 1 mod f_j and 0 mod the other factors, which divide C_j (Huffman and
Pless, Ch. 4); in characteristic 2, x * f_j' is f_j without its
even-degree terms.  Squaring is a ring map, so for 2^J >= e,
eps0_j^(2^J) mod M is the idempotent with the same residues, eps_j
(Castagnoli, Massey, Schoeller and von Seemann, 1991).  The certificate
is sum eps0_j = 1 (mod g), at degree n: squaring is additive and
carries it to M.  The tests keep the xgcd construction as the reference
and check eps_j^2 = eps_j and eps_j * eps_l = 0 pairwise.

Counting needs only the factor degrees, and factor_degrees finds them
without factoring.  Let q = 2^m and t = ord(c).  The roots of x^n + c
are zeta^b for a primitive (n*t)-th root of unity zeta and the n
exponents b = 1 + t*j, 0 <= j < n.  The minimal polynomial of zeta^b
has degree |{b * q^i mod n*t}|, the size of the q-cyclotomic coset of
b, and q = 1 (mod t) keeps every such coset inside the set of the b.
So the degrees are the sizes of the cosets that partition that set
(Huffman and Pless, Fundamentals of Error-Correcting Codes, 4.1).
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

from .gf2m import GF2m, _factor_int
from . import polyring as pr
from .polyring import Poly, is_irreducible
from .params import Params


def _trace_split(F: GF2m, g: Poly, d: int, rng: random.Random) -> tuple[Poly, Poly]:
    """Split a product g of degree-d irreducibles into two proper parts."""
    bits = F.m * d
    dv = pr.k_divisor(F, pr.pack(F, g))
    for _ in range(64):  # a draw splits with probability >= 1/2 if d is right
        tr = acc = pr.pack(F, pr.normalize(rng.randrange(F.order) for _ in range(pr.deg(g))))
        for _ in range(bits - 1):
            acc = pr.k_mod(F, pr.k_sqr(F, acc), dv)
            tr ^= acc
        w = pr.k_xgcd(F, tr, dv.rows[0])[0]  # monic; g itself if tr = 0
        if 0 < (w.bit_length() - 1) // F.lane < dv.deg:
            return pr.unpack(F, w), pr.unpack(F, pr.k_divmod(F, dv.rows[0], pr.k_divisor(F, w))[0])
    raise ArithmeticError(f"no split of a degree-{pr.deg(g)} part into degree-{d} factors")


def _equal_degree(F: GF2m, g: Poly, d: int, rng: random.Random) -> list[Poly]:
    if pr.deg(g) == d:
        return [g]
    w1, w2 = _trace_split(F, g, d, rng)
    return _equal_degree(F, w1, d, rng) + _equal_degree(F, w2, d, rng)


def factor_xn_delta(F: GF2m, n: int, delta0: int) -> list[tuple[Poly, int]]:
    """Distinct monic irreducible factors of x^n + delta0, with degrees.

    Each distinct-degree part must have the degree the cosets give, and
    the sorted degrees must be the coset sizes, or ArithmeticError names
    the parts that fail Rabin's test.  Output is sorted by (degree,
    coefficients), so it does not depend on the random splits; those
    draw from a fixed seed, so the time a call takes does not vary.
    """
    degrees = factor_degrees(F, n, delta0)  # also rejects even n and zero delta0
    target = pr.normalize((delta0,) + (0,) * (n - 1) + (1,))
    rng = random.Random(0)

    factors: list[Poly] = []
    rem, frob, last = target, pr.P_X, 0  # frob = x^(q^last) mod rem
    *low, top = sorted(set(degrees))
    for d in low:
        frob = pr.p_powmod(F, frob, F.order ** (d - last), rem)
        g = pr.p_gcd(F, pr.p_add(F, frob, pr.P_X), rem)
        if pr.deg(g) != d * degrees.count(d):
            raise ArithmeticError(f"the degree-{d} part has degree {pr.deg(g)}, "
                                  f"not {d} * {degrees.count(d)}")
        factors.extend(_equal_degree(F, g, d, rng))
        rem, last = pr.p_divmod(F, rem, g)[0], d
    factors.extend(_equal_degree(F, rem, top, rng))

    factors.sort(key=lambda f: (pr.deg(f), f))
    if [pr.deg(f) for f in factors] != degrees:
        bad = [f for f in factors if not is_irreducible(F, f)]
        raise ArithmeticError(f"factor degrees differ from the coset sizes; reducible: {bad}")
    prod = pr.P_ONE
    for f in factors:
        prod = pr.p_mul(F, prod, f)
    if prod != target:
        raise ArithmeticError("factor product does not reassemble the input")
    return [(f, pr.deg(f)) for f in factors]


def factor_degrees(F: GF2m, n: int, c: int) -> list[int]:
    """Degrees of the irreducible factors of x^n + c, sorted, from the
    q-cyclotomic cosets of the exponents 1 + t*j modulo n*t, t = ord(c).

    Integer arithmetic only: n coset steps after the order of c.  The
    bookkeeping is indexed by j, so it has size n, not n*t.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    if not 0 < c < F.order:
        raise ValueError(f"c must be a nonzero element of GF(2^{F.m}), got {c}")
    q = F.order
    t = q - 1
    for p in _factor_int(q - 1):
        while t % p == 0 and F.pow(c, t // p) == 1:
            t //= p
    mod = n * t
    seen = bytearray(n)
    degrees = []
    for j in range(n):
        if seen[j]:
            continue
        d = 0
        b = 1 + t * j
        while not seen[(b - 1) // t]:
            seen[(b - 1) // t] = 1
            d += 1
            b = b * q % mod
        degrees.append(d)
    return sorted(degrees)


class FactorEntry(NamedTuple):
    f: Poly
    degree: int


class FactorData:
    """The factors of the core polynomial; global split data on demand."""

    def __init__(self, params: Params, entries: tuple[FactorEntry, ...]) -> None:
        self.params, self.entries = params, entries

    @cached_property
    def cofactors(self) -> tuple[Poly, ...]:
        """The C_j = (x^n + delta_root) / f_j, exactly, one per factor."""
        F, base = self.params.field, self.params.base_poly
        out = []
        for ent in self.entries:
            cof, rem = pr.p_divmod(F, base, ent.f)
            if rem:
                raise ArithmeticError(f"factor {ent.f} does not divide the core polynomial")
            out.append(cof)
        return tuple(out)

    @cached_property
    def idempotents(self) -> tuple[Poly, ...]:
        """The eps_j, one per factor, from the closed form of the module
        docstring; raises ArithmeticError if the eps0_j do not sum to 1."""
        params, F = self.params, self.params.field
        g = pr.k_divisor(F, pr.pack(F, params.base_poly))
        inv = F.inv(params.delta_root)
        base, total = [], 0
        for ent, cof in zip(self.entries, self.cofactors):
            xdf = pr.p_scale(F, pr.normalize(c if i & 1 else 0 for i, c in enumerate(ent.f)), inv)
            base.append(pr.k_mod(F, pr.k_mul(F, pr.pack(F, xdf), pr.pack(F, cof)), g))
            total ^= base[-1]
        if total != 1:
            raise ArithmeticError("idempotents do not sum to 1")
        dv = self.modulus_divisor
        out = []
        for eps in base:
            for _ in range((params.nilpotency - 1).bit_length()):
                eps = pr.k_mod(F, pr.k_sqr(F, eps), dv)
            out.append(pr.unpack(F, eps))
        return tuple(out)

    @cached_property
    def modulus_divisor(self) -> pr.Divisor:
        """M packed and prepared for long division, built on first use."""
        F = self.params.field
        return pr.k_divisor(F, pr.pack(F, self.params.a_modulus))


def build_factor_data(params: Params) -> FactorData:
    """Factor the core polynomial; the rest is built on first use."""
    factors = factor_xn_delta(params.field, params.n, params.delta_root)
    return FactorData(params, tuple(FactorEntry(f, d) for f, d in factors))
