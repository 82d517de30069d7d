"""Exact arithmetic in the binary fields GF(2^m), 1 <= m <= 16.

A field element is a plain int whose bits are the coordinates in the
polynomial basis {1, y, ..., y^(m-1)}: bit i is the coefficient of y^i.
Addition is xor.  Multiplication reduces modulo an irreducible degree-m
polynomial over GF(2), either through log/antilog tables (built eagerly
for m <= 12) or by carry-less shift-and-reduce above that.

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

# Log/antilog tables above this degree cost more memory than they save.
_TABLE_LIMIT = 12


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
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, reduction={self.reduction:#x})"

    # -- table construction -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply modulo the reduction polynomial."""
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

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        n1 = self.order - 1
        if n1 == 1:
            return 1
        primes = _factor_int(n1)
        for g in range(2, self.order):
            if all(self._pow_raw(g, n1 // p) != 1 for p in primes):
                return g
        raise ArithmeticError("no multiplicative generator found (reduction reducible?)")

    def _build_tables(self) -> None:
        n1 = self.order - 1
        g = self._find_generator()
        exp = [0] * (2 * n1 if n1 > 1 else 2)
        log = [0] * self.order
        v = 1
        for i in range(n1):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, g)
        if v != 1:
            raise ArithmeticError("generator order mismatch while building tables")
        for i in range(n1, len(exp)):
            exp[i] = exp[i - n1]
        self._exp, self._log = exp, log

    # -- ring operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product of two elements."""
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^m)")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self._pow_raw(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e allowed for units."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no inverse in GF(2^m)")
            return 0
        n1 = self.order - 1
        e %= n1 if n1 else 1
        if e == 0:
            return 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % n1]
        return self._pow_raw(a, e)

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

        Exists because x -> x^(2^k) permutes the multiplicative group of
        odd order 2^m - 1; computed as delta**t with t the inverse of
        2^k modulo 2^m - 1.
        """
        if delta == 0:
            raise ValueError("root_2k requires a nonzero element")
        if k < 1:
            raise ValueError("root_2k requires k >= 1")
        n1 = self.order - 1
        if n1 == 1:
            r = 1
        else:
            tau = pow(pow(2, k, n1), -1, n1)
            r = self.pow(delta, tau)
        # x^(2^m) = x, so x^(2^k) = x^(2^(k mod m)) even for a huge k.
        if self.pow(r, 1 << (k % self.m)) != delta:
            raise ArithmeticError("root_2k postcondition failed")
        return r

    # -- iteration ------------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

