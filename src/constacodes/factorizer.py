"""Factor x^n + c (n odd, c nonzero) over GF(2^m) and build split data.

n odd makes x^n + c squarefree, so distinct-degree factorization
followed by equal-degree splitting yields pairwise distinct monic
irreducible factors.  Equal-degree splitting uses the absolute trace
map h + h^2 + h^4 + ... down to GF(2), the characteristic-2 substitute
for the odd-characteristic exponentiation split.

build_factor_data keeps, for every factor f_j of g = x^n + c, only its
degree d_j and the exact cofactor C_j = g / f_j: all that counting and
enumeration need.  The orthogonal idempotents eps_j of GF(2^m)[x]/<M>,
M = g^e with e = 2^k * lam, are built on first use in closed form.  As
n is odd, x * g' = x^n = c (mod g) and g' = sum_l f_l' * C_l, so

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
    while True:
        h = pr.normalize(rng.randrange(F.order) for _ in range(pr.deg(g)))
        if not h:
            continue
        tr = acc = pr.pack(F, h)
        for _ in range(bits - 1):
            acc = pr.k_mod(F, pr.k_sqr(F, acc), dv)
            tr ^= acc
        w = pr.p_gcd(F, pr.unpack(F, tr), g) if tr else pr.P_ZERO
        if w and 0 < pr.deg(w) < pr.deg(g):
            return w, pr.p_divmod(F, g, w)[0]


def _equal_degree(F: GF2m, g: Poly, d: int, rng: random.Random) -> list[Poly]:
    if pr.deg(g) == d:
        return [g]
    w1, w2 = _trace_split(F, g, d, rng)
    return _equal_degree(F, w1, d, rng) + _equal_degree(F, w2, d, rng)


def factor_xn_delta(F: GF2m, n: int, delta0: int) -> list[tuple[Poly, int]]:
    """Distinct monic irreducible factors of x^n + delta0, with degrees.

    Output is sorted by (degree, coefficient tuple), so it does not depend
    on the random splits; those draw from a fixed seed, so that the time
    a call takes does not vary either.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    if delta0 == 0:
        raise ValueError("delta0 must be nonzero")
    target = pr.normalize((delta0,) + (0,) * (n - 1) + (1,))
    rng = random.Random(0)

    factors: list[Poly] = []
    rem = target
    frob = pr.p_mod(F, pr.P_X, rem)  # x^(q^d) mod rem, advanced per degree
    d = 0
    while pr.deg(rem) > 0:
        d += 1
        if 2 * d > pr.deg(rem):
            factors.append(pr.monic(F, rem))
            break
        frob = pr.p_powmod(F, frob, F.order, rem)
        g = pr.p_gcd(F, pr.p_add(F, frob, pr.P_X), rem)
        if pr.deg(g) > 0:
            factors.extend(_equal_degree(F, g, d, rng))
            rem = pr.p_divmod(F, rem, g)[0]
            frob = pr.p_mod(F, frob, rem)

    factors.sort(key=lambda f: (pr.deg(f), f))
    prod = pr.P_ONE
    for f in factors:
        if not is_irreducible(F, f):
            raise ArithmeticError(f"factor {f} failed the irreducibility test")
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
    cofactor: Poly      # (x^n + delta_root) / f, exactly


class FactorData:
    """The factors of the core polynomial; global split data on demand."""

    def __init__(self, params: Params, entries: tuple[FactorEntry, ...]) -> None:
        self.params, self.entries = params, entries

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def modulus(self) -> Poly:
        """M = (x^n + delta_root)^e, e = 2^k * lam, built on first use."""
        return self.params.a_modulus

    @cached_property
    def idempotents(self) -> tuple[Poly, ...]:
        """The eps_j, one per factor, from the closed form of the module
        docstring; raises ArithmeticError if the eps0_j do not sum to 1."""
        params = self.params
        F = params.field
        g = pr.k_divisor(F, pr.pack(F, params.base_poly))
        inv = F.inv(params.delta_root)
        base, total = [], 0
        for ent in self.entries:
            xdf = pr.p_scale(F, pr.normalize(c if i & 1 else 0 for i, c in enumerate(ent.f)), inv)
            base.append(pr.k_mod(F, pr.k_mul(F, pr.pack(F, xdf), pr.pack(F, ent.cofactor)), g))
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
        return pr.k_divisor(F, pr.pack(F, self.modulus))


def build_factor_data(params: Params) -> FactorData:
    """Factor the core polynomial and divide out each factor's cofactor."""
    F = params.field
    base = params.base_poly
    entries = []
    for f, d in factor_xn_delta(F, params.n, params.delta_root):
        cof, rem = pr.p_divmod(F, base, f)
        if rem:
            raise ArithmeticError(f"factor {f} does not divide the core polynomial")
        entries.append(FactorEntry(f, d, cof))
    return FactorData(params, tuple(entries))
