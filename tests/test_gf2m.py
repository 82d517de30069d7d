import itertools
import random

import pytest

from constacodes.gf2m import GF2m
from constacodes.polyring import is_irreducible
from reference import TableField

F2 = GF2m(1)


def coefficients(poly):
    """The GF(2) coefficient tuple of a packed polynomial."""
    return tuple(poly >> i & 1 for i in range(poly.bit_length()))


def test_f2_context():
    F = GF2m(1)
    assert F.order == 2
    assert F.mul(1, 1) == 1


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
    # y^13 + 1 = (y + 1)(...) and y^16 + y^8 + 1 = (y^8 + y^4 + 1)^2.
    with pytest.raises(ValueError) as err:
        GF2m(m, reduction)
    assert str(err.value) == f"reduction polynomial {reduction:#b} is reducible over GF(2)"


@pytest.mark.parametrize("m, reduction, order", [(4, 0b11111, 5), (8, 0x11B, 51)])
def test_irreducible_non_primitive_reduction(m, reduction, order):
    # y has order below 2^m - 1, so y is not a generator of the unit
    # group; every unit must still invert.
    F = GF2m(m, reduction)
    assert F.pow(2, order) == 1 and all(F.pow(2, e) != 1 for e in range(1, order))
    for a in F.nonzero_elements():
        assert F.mul(a, F.inv(a)) == 1


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
def test_inverse_and_unit_order_large_m(m):
    # Above the reference tables' range: the inverse law and Lagrange.
    F = GF2m(m)
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, F.order)
        assert F.mul(a, F.inv(a)) == 1
        assert F.pow(a, F.order - 1) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
def test_frobenius_is_bijection(m):
    F = GF2m(m)
    images = {F.mul(a, a) for a in range(F.order)}
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


@pytest.mark.parametrize("m", [1, 2, 3, 16])
def test_operands_outside_the_field_rejected(m):
    # Without the check, a negative second operand kept mul's loop
    # running forever (GF2m(2).mul(1, -1)), and so did inv of an
    # unreduced int (GF2m(3).inv(GF2m(3).reduction)).
    F = GF2m(m)
    for a, b in [(1, -1), (-1, 1), (-F.order, 0), (F.order, 1), (1, F.order), (0, F.reduction)]:
        with pytest.raises(ValueError):
            F.mul(a, b)
    for a in (-1, F.order, F.reduction, F.order << 3):
        with pytest.raises(ValueError):
            F.inv(a)
    assert F.mul(F.order - 1, F.order - 1) == F.pow(F.order - 1, 2)
    assert F.mul(F.order - 1, F.inv(F.order - 1)) == 1


@pytest.mark.parametrize("m", [2, 3, 8, 12])
def test_log_antilog_tables_consistent(m):
    # The reference tables the differential test reads: log is a
    # bijection of the units onto 0 .. 2^m - 2, and antilog undoes it.
    T = TableField(m, GF2m(m).reduction)
    assert sorted(T.log[a] for a in range(1, T.order)) == list(range(T.order - 1))
    for a in range(1, T.order):
        assert T.exp[T.log[a]] == a


@pytest.mark.parametrize("m, reduction", [(m, None) for m in range(1, 13)]
                         + [(4, 0b11111), (8, 0x11B)])
def test_arithmetic_matches_tables(m, reduction):
    # Every pair for m <= 6 and the non-primitive reductions, where the
    # tables' generator is not y; random pairs for the other m <= 12.
    # Each pair (a, b) also checks a^e for e = b - 2^(m-1), so negative
    # exponents are covered.
    F = GF2m(m, reduction)
    T = TableField(m, F.reduction)
    if m <= 6 or reduction is not None:
        pairs = itertools.product(range(F.order), repeat=2)
    else:
        rng = random.Random(31 + m)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(3000)]
    half = F.order // 2
    for a, b in pairs:
        assert F.mul(a, b) == T.mul(a, b)
        if a:
            assert F.pow(a, b - half) == T.pow(a, b - half)
    for a in range(F.order) if F.order <= 256 else random.Random(m).sample(range(F.order), 256):
        assert F.sqrt(a) == T.sqrt(a)
        assert F.pow(a, 0) == 1
        if a:
            assert F.inv(a) == T.inv(a)
            for e in (1, F.order - 1, F.order, -1, -F.order, 3 * F.order + 5, -(10 ** 9)):
                assert F.pow(a, e) == T.pow(a, e)
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_sqrt_examples_and_property():
    assert GF2m(1).sqrt(1) == 1
    F4 = GF2m(2)
    # sqrt(w) = w^2 since (w^2)^2 = w^4 = w
    assert F4.sqrt(2) == F4.mul(2, 2)
    for m in (2, 3, 4, 8):
        F = GF2m(m)
        for a in range(F.order):
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
    # k = m, m + 1, ... wrap around the m squarings that are the identity.
    for k in (1, 2, 3, m, m + 1, 2 * m + 3, 10**9 + 7):
        for delta in F.nonzero_elements():
            r = F.root_2k(delta, k)
            # 2^k reduced modulo the order of the unit group; a residue 0
            # stands for 2^m - 1, so r = 0 still fails (0^0 would be 1)
            e = pow(2, k, F.order - 1) or F.order - 1
            assert F.pow(r, e) == delta


def test_root_2k_rejects_zero():
    with pytest.raises(ValueError):
        GF2m(3).root_2k(0, 2)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 13])
def test_trace(m):
    F = GF2m(m)
    rng = random.Random(71 + m)
    elems = list(range(F.order)) if m <= 3 else [rng.randrange(F.order) for _ in range(300)]
    for a in elems:
        b = rng.randrange(F.order)
        assert F.trace(a) in (0, 1)
        assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)
        assert F.trace(F.mul(a, a)) == F.trace(a)
    assert F.trace(0) == 0
    assert F.trace(1) == m % 2
