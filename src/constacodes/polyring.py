"""Dense univariate polynomial arithmetic over GF(2^m).

A polynomial is a tuple of field-element ints, index = degree,
normalized so the last entry is nonzero.  The zero polynomial is the
empty tuple; its degree is reported as -1, which stands in for the
usual "minus infinity" and compares below every real degree.

All operations take the field context as first argument and are pure.
"""

from __future__ import annotations

from .gf2m import GF2m

Poly = tuple[int, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (1,)
P_X: Poly = (0, 1)


def normalize(coeffs) -> Poly:
    """Strip trailing zeros and return a tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def deg(p: Poly) -> int:
    return len(p) - 1


def p_const(c: int) -> Poly:
    return (c,) if c else ()


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


def p_mul(F: GF2m, a: Poly, b: Poly) -> Poly:
    """Schoolbook product that skips zero coefficients: the large operands
    here are mostly 2^j-th powers, nonzero only at multiples of 2^j."""
    if not a or not b:
        return P_ZERO
    if len(a) == 1:
        return p_scale(F, b, a[0])
    if len(b) == 1:
        return p_scale(F, a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    mul = F.mul
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        if ai == 1:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= bj
        else:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= mul(ai, bj)
    return normalize(out)


def p_sqr(F: GF2m, a: Poly) -> Poly:
    """a*a in linear time: in characteristic 2 the cross terms cancel, so
    (sum a_i x^i)^2 = sum a_i^2 x^(2i)."""
    if not a:
        return P_ZERO
    out = [0] * (2 * len(a) - 1)
    if F.m == 1:
        out[::2] = a
    else:
        mul = F.mul
        out[::2] = [mul(c, c) for c in a]
    return tuple(out)


def p_divmod(F: GF2m, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return P_ZERO, a
    inv_lead = F.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    mul = F.mul
    for top in range(len(a) - 1, db - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        q = mul(c, inv_lead)
        quot[top - db] = q
        off = top - db
        for j, bj in enumerate(b):
            if bj:
                rem[off + j] ^= mul(q, bj)
    return normalize(quot), normalize(rem[:db])


def p_mod(F: GF2m, a: Poly, b: Poly) -> Poly:
    return p_divmod(F, a, b)[1]


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
    while b:
        a, b = b, p_mod(F, a, b)
    return monic(F, a)


def p_xgcd(F: GF2m, a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g plus s, t with s*a + t*b = g, exactly as polynomials."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = P_ONE, P_ZERO
    t0, t1 = P_ZERO, P_ONE
    while r1:
        q, r = p_divmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, p_add(F, s0, p_mul(F, q, s1))
        t0, t1 = t1, p_add(F, t0, p_mul(F, q, t1))
    if r0 and r0[-1] != 1:
        c = F.inv(r0[-1])
        r0, s0, t0 = p_scale(F, r0, c), p_scale(F, s0, c), p_scale(F, t0, c)
    return r0, s0, t0


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
    base = p_mod(F, base, modulus)
    r = p_mod(F, P_ONE, modulus)
    while e:
        if e & 1:
            r = p_mod(F, p_mul(F, r, base), modulus)
        e >>= 1
        if e:
            base = p_mod(F, p_sqr(F, base), modulus)
    return r
