"""Dense univariate polynomial arithmetic over GF(2^m).

Tuples are the API.  A polynomial is a tuple of field-element ints,
index = degree, normalized so the last entry is nonzero.  The zero
polynomial is the empty tuple; its degree is reported as -1, which
stands in for the usual "minus infinity" and compares below every real
degree.  All operations take the field context as first argument and
are pure.

Lanes are the kernel.  p_mul, p_sqr, p_divmod, p_mod, p_gcd, p_xgcd
and p_powmod pack their tuples into ints, compute on the ints (k_*)
and unpack the result.  Coefficient i sits in lane i, bits w*i ..
w*i+w-1, where the lane width w (GF2m.lane) is the least of 8, 16 and
32 that holds the 2m-1 bits of a carry-less product of two elements:

    m      1..4   5..8   9..16
    w         8     16      32

So a carry-less product (b shifted to every set bit of a, xored) keeps
each coefficient product in its own lane, and one fold reduces every
lane modulo the field polynomial at once, by masked shifts.  Lanes are
byte-aligned so that packing and unpacking are int.from_bytes and
int.to_bytes over bytes or struct items; at the tight stride of 2m-1
bits they are Python loops, which cost small polynomials more than the
kernel saves.  Long division folds nothing: a divisor b is prepared
once (Divisor) as the rows y^j * b, j < m, and a step with quotient
coefficient c xors in the rows of the set bits of c, shifted into place.
is_irreducible, Rabin's test, runs on it over any GF(2^m); over GF(2)
it checks a caller's field reduction polynomial.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from .gf2m import GF2m, _factor_int

Poly = tuple[int, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_X: Poly = (0, 1)

_ITEM = {16: "H", 32: "I"}  # struct format of a 16- and a 32-bit lane


def normalize(coeffs) -> Poly:
    """Strip trailing zeros and return a tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(p: Poly) -> int:
    return len(p) - 1


def p_add(F: GF2m, a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return normalize(out)


def p_scale(F: GF2m, a: Poly, c: int) -> Poly:
    if c == 0 or not a:
        return P_ZERO
    if c == 1:
        return a
    return normalize(F.mul(x, c) for x in a)


# ----------------------------------------------------------------------
# The lane kernel: packed ints whose lanes hold reduced coefficients.
# ----------------------------------------------------------------------

def pack(F: GF2m, p: Poly) -> int:
    """The packed int of p: coefficient i in lane i."""
    raw = bytes(p) if F.lane == 8 else struct.pack(f"<{len(p)}{_ITEM[F.lane]}", *p)
    return int.from_bytes(raw, "little")


def unpack(F: GF2m, x: int) -> Poly:
    """The tuple of a packed polynomial; its top lane is nonzero, so the
    tuple is normalized."""
    n = (x.bit_length() + F.lane - 1) // F.lane
    raw = x.to_bytes(n * F.lane // 8, "little")
    return tuple(raw) if F.lane == 8 else struct.unpack(f"<{n}{_ITEM[F.lane]}", raw)


def _lead(F: GF2m, x: int) -> int:
    """Leading coefficient of a nonzero packed polynomial."""
    return x >> (F.lane * ((x.bit_length() - 1) // F.lane))


def _ones(F: GF2m, r: int) -> int:
    """1 in each lane of r."""
    w = F.lane
    return ((1 << (w * ((r.bit_length() + w - 1) // w))) - 1) // ((1 << w) - 1)


def _fold(F: GF2m, r: int) -> int:
    """Reduce every lane of r (each below 2^(2m-1)) modulo the field
    polynomial: the lanes with bit j set, j = 2m-2 .. m, get it cleared."""
    if F.m == 1 or not r:  # every lane holds 0 or 1 already
        return r
    ones = _ones(F, r)
    for j in range(2 * F.m - 2, F.m - 1, -1):
        hits = (r >> j) & ones
        if hits:
            r ^= hits * (F.reduction << (j - F.m))  # fits in each hit lane
    return r


def k_mul(F: GF2m, a: int, b: int) -> int:
    """Product of packed polynomials: b shifted to every set bit of the
    sparser operand, xored, then folded."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    for i, c in enumerate(a.to_bytes((a.bit_length() + 7) // 8, "little")):
        bit = 8 * i
        while c:
            if c & 1:
                r ^= b << bit
            c >>= 1
            bit += 1
    return _fold(F, r)


# a nibble's bits read as base-4 digits: bit j moved to bit 2j, for the
# low and the high nibble of a byte
_SPREAD_LO = bytes(int(f"{b & 15:b}", 4) for b in range(256))
_SPREAD_HI = bytes(int(f"{b >> 4:b}", 4) for b in range(256))


def k_sqr(F: GF2m, a: int) -> int:
    """a*a in linear time: (sum a_i x^i)^2 = sum a_i^2 x^(2i) in
    characteristic 2, and moving every bit k of a to bit 2k puts the
    carry-less square of a_i in lane 2i; then one fold."""
    raw = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LO)
    out[1::2] = raw.translate(_SPREAD_HI)
    return _fold(F, int.from_bytes(out, "little"))


class Divisor(NamedTuple):
    """A nonzero packed polynomial b prepared for long division: deg b,
    1 / lc(b) and the rows y^j * b, j < m (rows[0] is b)."""

    deg: int
    lead_inv: int
    rows: tuple[int, ...]


def k_divisor(F: GF2m, b: int) -> Divisor:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rows = [b]
    ones = _ones(F, b) if F.m > 1 else 0
    for _ in range(1, F.m):  # y times the row before: only bit m can overflow
        row = rows[-1] << 1
        rows.append(row ^ ((row >> F.m) & ones) * F.reduction)
    return Divisor((b.bit_length() - 1) // F.lane, F.inv(_lead(F, b)), tuple(rows))


def k_divmod(F: GF2m, a: int, dv: Divisor) -> tuple[int, int]:
    """Quotient and remainder of packed a by a prepared divisor."""
    w, rows, inv = F.lane, dv.rows, dv.lead_inv
    stop = w * dv.deg  # a remainder has no bit at or above lane deg b
    q = 0
    while (n := a.bit_length()) > stop:
        top = (n - 1) // w
        shift = w * (top - dv.deg)
        c = a >> (w * top)
        if inv != 1:
            c = F.mul(c, inv)
        q |= c << shift
        for row in rows:  # a -= c * x^shift * b, clearing lane top
            if c & 1:
                a ^= row << shift
            c >>= 1
    return q, a


def k_mod(F: GF2m, a: int, dv: Divisor) -> int:
    return k_divmod(F, a, dv)[1]


def k_xgcd(F: GF2m, a: int, b: int) -> tuple[int, int, int]:
    """Monic g plus s, t with s*a + t*b = g, on packed polynomials that
    are not both zero."""
    (r0, s0, t0), (r1, s1, t1) = (a, 1, 0), (b, 0, 1)  # r = s*a + t*b in each
    while r1:
        q, r = k_divmod(F, r0, k_divisor(F, r1))
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r, s0 ^ k_mul(F, q, s1), t0 ^ k_mul(F, q, t1))
    c = F.inv(_lead(F, r0))
    if c != 1:
        r0, s0, t0 = k_mul(F, r0, c), k_mul(F, s0, c), k_mul(F, t0, c)
    return r0, s0, t0


# ----------------------------------------------------------------------
# The tuple API over the kernel
# ----------------------------------------------------------------------

def p_mul(F: GF2m, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    if a == P_ONE:
        return b
    if b == P_ONE:
        return a
    return unpack(F, k_mul(F, pack(F, a), pack(F, b)))


def p_sqr(F: GF2m, a: Poly) -> Poly:
    return unpack(F, k_sqr(F, pack(F, a)))


def p_divmod(F: GF2m, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; b must be nonzero."""
    if b and len(a) < len(b):
        return P_ZERO, a
    q, r = k_divmod(F, pack(F, a), k_divisor(F, pack(F, b)))
    return unpack(F, q), unpack(F, r)


def p_mod(F: GF2m, a: Poly, b: Poly) -> Poly:
    if b and len(a) < len(b):
        return a
    return unpack(F, k_mod(F, pack(F, a), k_divisor(F, pack(F, b))))


def monic(F: GF2m, p: Poly) -> Poly:
    if not p:
        return P_ZERO
    if p[-1] == 1:
        return p
    return p_scale(F, p, F.inv(p[-1]))


def p_gcd(F: GF2m, a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is rejected."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = pack(F, a), pack(F, b)
    while b:
        a, b = b, k_mod(F, a, k_divisor(F, b))
    return monic(F, unpack(F, a))


def p_xgcd(F: GF2m, a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g plus s, t with s*a + t*b = g, exactly as polynomials."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    return tuple(unpack(F, x) for x in k_xgcd(F, pack(F, a), pack(F, b)))


def p_pow(F: GF2m, p: Poly, e: int) -> Poly:
    """p**e without reduction (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponent")
    r = P_ONE
    while e:
        if e & 1:
            r = p_mul(F, r, p)
        e >>= 1
        if e:
            p = p_sqr(F, p)
    return r


def p_powmod(F: GF2m, base: Poly, e: int, modulus: Poly) -> Poly:
    """base**e mod modulus by square-and-multiply; e may be huge."""
    if deg(modulus) < 1:
        raise ValueError("powmod modulus must be nonconstant")
    if e < 0:
        raise ValueError("negative exponent")
    dv = k_divisor(F, pack(F, modulus))
    b = k_mod(F, pack(F, base), dv)
    r = 1  # the constant 1, already reduced by a nonconstant modulus
    while e:
        if e & 1:
            r = k_mod(F, k_mul(F, r, b), dv)
        e >>= 1
        if e:
            b = k_mod(F, k_sqr(F, b), dv)
    return unpack(F, r)


def is_irreducible(F: GF2m, f: Poly) -> bool:
    """Rabin test over GF(2^m)."""
    d = deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    if p_powmod(F, P_X, q**d, f) != p_mod(F, P_X, f):
        return False
    for p in _factor_int(d):
        h = p_powmod(F, P_X, q ** (d // p), f)
        if p_gcd(F, p_add(F, h, P_X), f) != P_ONE:
            return False
    return True
