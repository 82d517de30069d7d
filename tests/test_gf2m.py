import random

import pytest

from constacodes.gf2m import GF2m
from constacodes.polyring import is_irreducible

F2 = GF2m(1)


def coefficients(poly):
    """The GF(2) coefficient tuple of a packed polynomial."""
    return tuple(poly >> i & 1 for i in range(poly.bit_length()))


def test_f2_context():
    F = GF2m(1)
    assert F.order == 2
    assert F.mul(1, 1) == 1
    assert F.add(1, 1) == 0


def test_f4_multiplication_table():
    # w = class of y with y^2 + y + 1 = 0: w*w = w^2 = w+1, w*w^2 = 1.
    F = GF2m(2)
    w = 2
    w2 = F.mul(w, w)
    assert w2 == 3  # w + 1
    assert F.mul(w, w2) == 1


def test_f8_generator_order():
    F = GF2m(3)
    seen = set()
    v = 1
    for _ in range(7):
        seen.add(v)
        v = F.mul(v, 2)
    assert v == 1
    assert len(seen) == 7


def test_rejects_bad_degree_and_range():
    with pytest.raises(ValueError):
        GF2m(3, reduction=0b111)          # degree 2, not 3
    with pytest.raises(ValueError):
        GF2m(0)
    with pytest.raises(ValueError):
        GF2m(17)
    with pytest.raises(ValueError):
        GF2m(2, reduction=-7)             # same bit length as 7, negative


def test_reducible_rejected_explicitly():
    # x^4 + x^2 + 1 = (x^2+x+1)^2
    assert not is_irreducible(F2, coefficients(0b10101))
    with pytest.raises(ValueError):
        GF2m(4, reduction=0b10101)


def test_custom_reduction_accepted():
    # x^4 + x^3 + 1 is irreducible; context must behave like a field.
    F = GF2m(4, reduction=0b11001)
    for a in F.nonzero_elements():
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("m, reduction", [(13, 0b10000000000001), (16, 0x10101)])
def test_reducible_rejected_without_tables(m, reduction):
    # y^13 + 1 = (y + 1)(...) and y^16 + y^8 + 1 = (y^8 + y^4 + 1)^2,
    # above the degree that gets log tables.
    with pytest.raises(ValueError) as err:
        GF2m(m, reduction)
    assert str(err.value) == f"reduction polynomial {reduction:#b} is reducible over GF(2)"


@pytest.mark.parametrize("m, reduction, order", [(4, 0b11111, 5), (8, 0x11B, 51)])
def test_irreducible_non_primitive_reduction(m, reduction, order):
    # y has order below 2^m - 1, so the tables need a generator other
    # than g = 2; they must still invert every unit and be a bijection.
    F = GF2m(m, reduction)
    assert F.pow(2, order) == 1 and all(F.pow(2, e) != 1 for e in range(1, order))
    for a in F.nonzero_elements():
        assert F.mul(a, F.inv(a)) == 1
    assert sorted(F._log[a] for a in F.nonzero_elements()) == list(range(F.order - 1))


@pytest.mark.parametrize("m", range(1, 17))
def test_builtin_reductions_are_irreducible(m):
    F = GF2m(m)
    assert is_irreducible(F2, coefficients(F.reduction))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_field_laws_random(m):
    F = GF2m(m)
    rng = random.Random(101 + m)
    for _ in range(1000):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
        assert a ^ a == 0


@pytest.mark.parametrize("m", [13, 14, 16])
def test_tableless_path_matches_raw(m):
    F = GF2m(m)
    assert F._exp is None
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, F.order)
        b = rng.randrange(1, F.order)
        assert F.mul(a, b) == F._mul_raw(a, b)
        assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_frobenius_is_bijection(m):
    F = GF2m(m)
    images = {F.mul(a, a) for a in F.elements()}
    assert len(images) == F.order


@pytest.mark.parametrize("m", [2, 3, 5])
def test_unit_group_order(m):
    F = GF2m(m)
    for a in F.nonzero_elements():
        assert F.pow(a, F.order - 1) == 1


def test_inv_zero_rejected():
    F = GF2m(3)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("m", [2, 3, 8, 12])
def test_log_antilog_tables_consistent(m):
    F = GF2m(m)
    assert F._exp is not None
    for a in F.nonzero_elements():
        assert F._exp[F._log[a]] == a


def test_sqrt_examples_and_property():
    assert GF2m(1).sqrt(1) == 1
    F4 = GF2m(2)
    # sqrt(w) = w^2 since (w^2)^2 = w^4 = w
    assert F4.sqrt(2) == F4.mul(2, 2)
    for m in (2, 3, 4, 8):
        F = GF2m(m)
        for a in F.elements():
            assert F.mul(F.sqrt(a), F.sqrt(a)) == a


def test_root_2k_examples():
    # identity root for delta = 1
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            assert GF2m(m).root_2k(1, k) == 1
    # m=2, k=2: 4 = 1 mod 3, so the root of w is w itself
    F4 = GF2m(2)
    assert F4.root_2k(2, 2) == 2
    assert F4.pow(2, 4) == 2
    # m=3, k=2: inverse of 4 mod 7 is 2, so the root of y is y^2
    F8 = GF2m(3)
    r = F8.root_2k(2, 2)
    assert r == F8.mul(2, 2)
    assert F8.pow(r, 4) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_root_2k_exhaustive(m):
    F = GF2m(m)
    for k in (1, 2, 3):
        for delta in F.nonzero_elements():
            r = F.root_2k(delta, k)
            assert F.pow(r, 1 << k) == delta


def test_root_2k_rejects_zero():
    with pytest.raises(ValueError):
        GF2m(3).root_2k(0, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 13])
def test_trace(m):
    # m=13 has no log tables, so its trace runs on the raw multiply.
    F = GF2m(m)
    rng = random.Random(71 + m)
    elems = list(F.elements()) if m <= 3 else [rng.randrange(F.order) for _ in range(300)]
    for a in elems:
        b = rng.randrange(F.order)
        assert F.trace(a) in (0, 1)
        assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)
        assert F.trace(F.mul(a, a)) == F.trace(a)
    assert F.trace(0) == 0
    assert F.trace(1) == m % 2
