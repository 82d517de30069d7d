import itertools
import random

import pytest

from constacodes.gf2m import GF2m
from constacodes import polyring as pr
from reference import is_irreducible as reference_is_irreducible

F2 = GF2m(1)
F4 = GF2m(2)
F8 = GF2m(3)

# every lane width (8 bits up to m = 4, 16 up to 8, 32 above), the
# table-free fields m >= 13, and one reduction other than the default
KERNEL_FIELDS = [GF2m(m) for m in (1, 2, 3, 4, 5, 8, 9, 13, 16)] + [GF2m(8, 0x11B)]


def rand_poly(F, rng, max_deg):
    return pr.normalize(rng.randrange(F.order) for _ in range(max_deg + 1))


def sqr(F, a):
    """a*a through the packed kernel's squaring."""
    return pr.unpack(F, pr.k_sqr(F, pr.pack(F, a)))


# ----------------------------------------------------------------------
# The schoolbook loops the lane kernel replaced, kept as its reference
# ----------------------------------------------------------------------

def school_mul(F, a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= F.mul(ai, bj)
    return pr.normalize(out)


def school_divmod(F, a, b):
    inv_lead = F.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        q = F.mul(rem[top], inv_lead)
        quot[top - db] = q
        for j, bj in enumerate(b):
            rem[top - db + j] ^= F.mul(q, bj)
    return pr.normalize(quot), pr.normalize(rem[:db])


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_kernel_matches_schoolbook(F):
    # degrees up to 90, so products outgrow any mask sized for the
    # operands; divisors are not monic; zero and constants included
    rng = random.Random(F.reduction)
    cases = [((), (3 % F.order, 1)), ((1,), (F.order - 1,)), ((F.order - 1,), (0, 1))]
    for _ in range(3 if F.m >= 13 else 25):
        cases.append((rand_poly(F, rng, rng.randrange(91)), rand_poly(F, rng, rng.randrange(91))))
    for a, b in cases:
        assert pr.p_mul(F, a, b) == school_mul(F, a, b)
        assert sqr(F, a) == school_mul(F, a, a)
        for x, y in ((a, b), (b, a)):
            if y:
                assert pr.p_divmod(F, x, y) == school_divmod(F, x, y)
                assert pr.p_mod(F, x, y) == school_divmod(F, x, y)[1]


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_powmod_matches_repeated_products(F):
    rng = random.Random(F.m)
    for _ in range(2 if F.m >= 13 else 6):
        low = tuple(rng.randrange(F.order) for _ in range(rng.randrange(1, 40)))
        modulus = low + (rng.randrange(1, F.order),)  # nonconstant, not monic
        base = rand_poly(F, rng, 60)
        acc = school_divmod(F, (1,), modulus)[1]
        for e in range(12):
            assert pr.p_powmod(F, base, e, modulus) == acc
            acc = school_divmod(F, school_mul(F, acc, base), modulus)[1]


def test_normalization_and_degree():
    assert pr.normalize([0, 0, 0]) == ()
    assert pr.deg(()) == -1
    assert pr.deg((1,)) == 0
    assert pr.normalize([1, 0, 1, 0]) == (1, 0, 1)


def test_mul_example_f2():
    # (x+1)(x^2+x+1) = x^3+1
    assert pr.p_mul(F2, (1, 1), (1, 1, 1)) == (1, 0, 0, 1)


def test_divmod_self():
    a = (1, 0, 1, 1)
    q, r = pr.p_divmod(F2, a, a)
    assert q == (1,) and r == ()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        pr.p_divmod(F2, (1, 1), ())


@pytest.mark.parametrize("F,seed", [(F2, 1), (F4, 2), (F8, 3)])
def test_divmod_roundtrip_random(F, seed):
    rng = random.Random(seed)
    for _ in range(300):
        a = rand_poly(F, rng, 12)
        b = rand_poly(F, rng, 6)
        if not b:
            continue
        q, r = pr.p_divmod(F, a, b)
        assert pr.deg(r) < pr.deg(b)
        assert pr.p_add(F, pr.p_mul(F, q, b), r) == a


@pytest.mark.parametrize("F,seed", [(F2, 11), (F4, 12), (F8, 13)])
def test_ring_laws_random(F, seed):
    rng = random.Random(seed)
    for _ in range(300):
        a, b, c = (rand_poly(F, rng, 8) for _ in range(3))
        assert pr.p_mul(F, a, b) == pr.p_mul(F, b, a)
        assert pr.p_mul(F, pr.p_mul(F, a, b), c) == pr.p_mul(F, a, pr.p_mul(F, b, c))
        assert pr.p_mul(F, a, pr.p_add(F, b, c)) == pr.p_add(
            F, pr.p_mul(F, a, b), pr.p_mul(F, a, c)
        )
        if a and b:
            assert pr.deg(pr.p_mul(F, a, b)) == pr.deg(a) + pr.deg(b)


def test_gcd_examples():
    assert pr.p_gcd(F2, (1, 1), (1, 1, 1)) == (1,)
    # gcd(a, 0) is the monic version of a: here a / 3, and 1/3 = 2 in GF(4)
    a = (2, 0, 3)
    assert pr.p_gcd(F4, a, ()) == (3, 0, 1)
    with pytest.raises(ValueError):
        pr.p_gcd(F2, (), ())


@pytest.mark.parametrize(
    "F,seed", [(F2, 21), (F4, 22), (F8, 23), (GF2m(5), 24), (GF2m(9), 25), (GF2m(13), 26)]
)
def test_xgcd_recombination_random(F, seed):
    # the Bezout identity, with products by the schoolbook reference
    rng = random.Random(seed)
    for i in range(300 if F.m >= 9 else 1000):
        a = rand_poly(F, rng, 40 if i % 20 == 0 else 7)
        b = rand_poly(F, rng, 30 if i % 20 == 0 else 5)
        if not a and not b:
            continue
        g, s, t = pr.p_xgcd(F, a, b)
        assert pr.p_add(F, school_mul(F, s, a), school_mul(F, t, b)) == g
        assert not g or g[-1] == 1
        if a:
            assert pr.p_mod(F, a, g) == ()
        if b:
            assert pr.p_mod(F, b, g) == ()
        if g == pr.P_ONE and pr.deg(b) >= 1:
            # the cofactor of a is reduced mod b: an inverse of a mod b
            assert pr.deg(s) < pr.deg(b)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_xgcd_edge_cases(F):
    # s*a + t*b = g with g monic and both cofactors reduced, deg s < deg b
    # and deg t < deg a, or constant where b or a is zero or constant
    rng = random.Random(F.m + 100)
    c = rng.randrange(1, F.order)
    a = rand_poly(F, rng, 12) + (c,)
    cases = [((), a), (a, ()), (a, (c,)), ((c,), a), ((c,), (F.order - 1,)), (a, a)]
    for _ in range(40):
        cases.append((rand_poly(F, rng, rng.randrange(1, 25)) + (rng.randrange(1, F.order),),
                      rand_poly(F, rng, rng.randrange(1, 25)) + (rng.randrange(1, F.order),)))
    for x, y in cases:
        g, s, t = pr.p_xgcd(F, x, y)
        assert pr.p_add(F, school_mul(F, s, x), school_mul(F, t, y)) == g
        assert g and g[-1] == 1
        assert pr.deg(s) < max(pr.deg(y), 1) and pr.deg(t) < max(pr.deg(x), 1)
    monic = pr.p_scale(F, a, F.inv(c))
    assert pr.p_xgcd(F, (), a) == (monic, (), (F.inv(c),))
    assert pr.p_xgcd(F, a, ()) == (monic, (F.inv(c),), ())
    assert pr.p_xgcd(F, a, (c,)) == ((1,), (), (F.inv(c),))
    with pytest.raises(ValueError):
        pr.p_xgcd(F, (), ())


@pytest.mark.parametrize("F,top,count,irreducible", [(F2, 10, 2047, 226), (F4, 5, 1365, 294),
                                                     (F8, 4, 4681, 1212)], ids=repr)
def test_rabin_matches_tuple_reference(F, top, count, irreducible):
    # every monic polynomial of degree <= top; the irreducible counts are
    # Gauss's necklace numbers summed over degrees 1 .. top
    polys = [low + (1,) for d in range(top + 1) for low in itertools.product(range(F.order), repeat=d)]
    verdicts = [pr.is_irreducible(F, f) for f in polys]
    assert verdicts == [reference_is_irreducible(F, f) for f in polys]
    assert (len(polys), sum(verdicts)) == (count, irreducible)


def test_powmod_examples():
    # x^2 mod (x^2+x+1) = x+1 over GF(2)
    assert pr.p_powmod(F2, (0, 1), 2, (1, 1, 1)) == (1, 1)
    assert pr.p_powmod(F2, (1, 1), 0, (1, 1, 1)) == (1,)
    with pytest.raises(ValueError):
        pr.p_powmod(F2, (0, 1), 5, (1,))


@pytest.mark.parametrize(
    "F,f",
    [
        (F2, (1, 1, 1)),          # irreducible, degree 2
        (F2, (1, 1, 0, 1)),       # x^3+x+1
        (F4, (2, 1)),             # x + w
        (F8, (1, 1, 0, 1)),       # degree 3 over GF(8)
    ],
)
def test_frobenius_fixed_point_for_irreducible(F, f):
    # x^(q^d) = x mod f for irreducible f of degree d
    d = pr.deg(f)
    assert pr.p_powmod(F, (0, 1), F.order**d, f) == pr.p_mod(F, (0, 1), f)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 13])
def test_sqr_matches_mul(m):
    # m = 13 is above the log-table limit, so field products are computed
    F = GF2m(m)
    rng = random.Random(m)
    assert sqr(F, ()) == ()
    for max_deg in (0, 1, 5, 40, 150):
        a = rand_poly(F, rng, max_deg)
        assert sqr(F, a) == pr.p_mul(F, a, a) == school_mul(F, a, a)


def test_pow_small():
    assert pr.p_pow(F2, (1, 1), 4) == (1, 0, 0, 0, 1)  # (x+1)^4 = x^4+1
    assert pr.p_pow(F2, (1, 1), 0) == (1,)

