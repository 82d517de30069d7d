"""Exact arithmetic in the binary fields GF(2^m), 1 <= m <= 16.

A field element is a plain int whose bits are the coordinates in the
polynomial basis {1, y, ..., y^(m-1)}: bit i is the coefficient of y^i.
Addition is xor.  Every m multiplies by carry-less shift-and-reduce
modulo an irreducible degree-m polynomial over GF(2), inverts by the
extended Euclidean algorithm on the same bit-ints, and raises to powers
by square-and-multiply; no tables are built.

The built-in reduction polynomials (bit i = coefficient of y^i):

    m=1  : y + 1                          3
    m=2  : y^2 + y + 1                    7
    m=3  : y^3 + y + 1                   11
    m=4  : y^4 + y + 1                   19
    m=5  : y^5 + y^2 + 1                 37
    m=6  : y^6 + y + 1                   67
    m=7  : y^7 + y^3 + 1                137
    m=8  : y^8 + y^4 + y^3 + y^2 + 1    285
    m=9  : y^9 + y^4 + 1                529
    m=10 : y^10 + y^3 + 1              1033
    m=11 : y^11 + y^2 + 1              2053
    m=12 : y^12 + y^6 + y^4 + y + 1    4179
    m=13 : y^13 + y^4 + y^3 + y + 1    8219
    m=14 : y^14 + y^10 + y^6 + y + 1  17475
    m=15 : y^15 + y + 1               32771
    m=16 : y^16 + y^12 + y^3 + y + 1  69643

A caller may override the reduction polynomial; polyring's Rabin test
checks that it is irreducible of degree m before the context is usable.
The built-in ones are constants, pinned irreducible by the tests.
"""

from __future__ import annotations

_REDUCTION = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

def _factor_int(n: int) -> list[int]:
    """Distinct prime factors of n by trial division.

    n is small here: a multiplicative group order 2^m - 1 (m <= 16) or
    the degree of a polynomial.
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class GF2m:
    """Arithmetic context for GF(2^m).

    Parameters
    ----------
    m : int
        Extension degree, 1 <= m <= 16.
    reduction : int, optional
        Packed irreducible polynomial of degree m over GF(2).  Defaults
        to the built-in table entry, which keeps results reproducible.
    """

    def __init__(self, m: int, reduction: int | None = None) -> None:
        if not 1 <= m <= 16:
            raise ValueError(f"extension degree m={m} outside supported range 1..16")
        if reduction is None:
            reduction = _REDUCTION[m]
        elif reduction < 0:
            raise ValueError(f"reduction polynomial must be nonnegative, got {reduction}")
        elif reduction.bit_length() - 1 != m:
            raise ValueError(
                f"reduction polynomial has degree {reduction.bit_length() - 1}, expected {m}"
            )
        elif m > 1:  # polyring imports this module, so import it here
            from .polyring import is_irreducible

            if not is_irreducible(GF2m(1), tuple(reduction >> i & 1 for i in range(m + 1))):
                raise ValueError(f"reduction polynomial {reduction:#b} is reducible over GF(2)")
        self.m = m
        self.reduction = reduction
        self.order = 1 << m
        # lane width of packed polynomials: 2m-1 bits in 8, 16 or 32
        self.lane = next(w for w in (8, 16, 32) if w >= 2 * m - 1)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, reduction={self.reduction:#x})"

    # -- ring operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product of two elements: carry-less shift-and-reduce.  An
        operand outside 0 .. 2^m - 1 raises ValueError."""
        if not 0 <= a | b < self.order:  # a | b < 0 if either is negative
            raise ValueError(f"operands {a}, {b} are not elements of GF(2^{self.m})")
        p = 0
        top = 1 << self.m
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.reduction
        return p

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element, by the extended
        Euclidean algorithm on bit-ints modulo the reduction polynomial.
        An int outside 0 .. 2^m - 1 raises ValueError."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.m})")
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        r0, s0, r1, s1 = a, 1, self.reduction, 0  # r = s*a mod reduction in each row
        while r0 != 1:
            j = r0.bit_length() - r1.bit_length()
            if j < 0:
                r0, s0, r1, s1, j = r1, s1, r0, s0, -j
            r0 ^= r1 << j
            s0 ^= s1 << j
        return s0

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e allowed for units."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no inverse in GF(2^m)")
            return 0
        e %= self.order - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def trace(self, a: int) -> int:
        """Absolute trace a + a^2 + a^4 + ... + a^(2^(m-1)), 0 or 1."""
        t = 0
        for _ in range(self.m):
            t ^= a
            a = self.mul(a, a)
        return t

    # -- square roots and 2^k-th roots ---------------------------------

    def sqrt(self, a: int) -> int:
        """The unique b with b*b == a (squaring is a bijection here)."""
        return self.pow(a, 1 << (self.m - 1))

    def root_2k(self, delta: int, k: int) -> int:
        """The unique nonzero r with r**(2**k) == delta.

        x -> x^2 permutes the field and m squarings are the identity, so
        delta squared (-k mod m) times is r: r^(2^k) = delta^(2^j) with
        j a multiple of m.
        """
        if delta == 0:
            raise ValueError("root_2k requires a nonzero element")
        if k < 1:
            raise ValueError("root_2k requires k >= 1")
        r = delta
        for _ in range(-k % self.m):
            r = self.mul(r, r)
        # x^(2^m) = x, so x^(2^k) = x^(2^(k mod m)) even for a huge k.
        if self.pow(r, 1 << (k % self.m)) != delta:
            raise ArithmeticError("root_2k postcondition failed")
        return r

    # -- iteration ------------------------------------------------------

    def nonzero_elements(self) -> range:
        return range(1, self.order)

