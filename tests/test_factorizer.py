import random
import tracemalloc
import types

import pytest

from constacodes.gf2m import GF2m, _factor_int
from constacodes import cli, factorizer
from constacodes import polyring as pr
from constacodes.chainring import make_chain_ctx
from constacodes.factorizer import build_factor_data, factor_degrees, factor_xn_delta
from constacodes.params import Params
from constacodes.polyring import is_irreducible

F2 = GF2m(1)
F4 = GF2m(2)
F8 = GF2m(3)


def test_linear_case():
    assert factor_xn_delta(F2, 1, 1) == [((1, 1), 1)]


def test_x3_plus_1_over_f2():
    fs = factor_xn_delta(F2, 3, 1)
    assert fs == [((1, 1), 1), ((1, 1, 1), 2)]
    prod = pr.P_ONE
    for f, _ in fs:
        prod = pr.p_mul(F2, prod, f)
    assert prod == (1, 0, 0, 1)


def test_x3_plus_1_over_f4_splits_into_linears():
    fs = factor_xn_delta(F4, 3, 1)
    assert [d for _, d in fs] == [1, 1, 1]
    roots = sorted(f[0] for f, _ in fs)
    assert roots == [1, 2, 3]  # 1, w, w^2: all cube roots of 1


def test_bigger_splits():
    # x^7 + 1 over GF(2): (x+1) and the two cubics
    fs = factor_xn_delta(F2, 7, 1)
    assert [d for _, d in fs] == [1, 3, 3]
    for f, _ in fs:
        assert is_irreducible(F2, f)
    # x^5 + y over GF(8), nontrivial constant
    fs8 = factor_xn_delta(F8, 5, 2)
    prod = pr.P_ONE
    for f, _ in fs8:
        assert is_irreducible(F8, f)
        prod = pr.p_mul(F8, prod, f)
    assert prod == (2, 0, 0, 0, 0, 1)


def test_rejects_even_n_and_zero_delta():
    with pytest.raises(ValueError):
        factor_xn_delta(F2, 4, 1)
    with pytest.raises(ValueError):
        factor_xn_delta(F2, 3, 0)


def test_determinism_across_seeds_and_runs(monkeypatch):
    a = factor_xn_delta(F4, 9, 3)
    b = factor_xn_delta(F4, 9, 3)
    assert a == b
    # splits drawn from another seed: same canonical output order
    seeded = []

    def other_seed(seed):
        seeded.append(seed)
        return random.Random(12345)

    monkeypatch.setattr(factorizer, "random", types.SimpleNamespace(Random=other_seed))
    c = factor_xn_delta(F4, 9, 3)
    assert seeded and a == c


def test_is_irreducible():
    assert is_irreducible(F2, (1, 1, 1))
    assert not is_irreducible(F2, (1, 0, 0, 1))  # x^3+1 splits
    assert not is_irreducible(F2, (1,))
    assert is_irreducible(F4, (2, 1))


@pytest.mark.parametrize(
    "m,n",
    [(1, 1), (1, 3), (2, 3), (1, 7), (3, 5)],
)
def test_factor_data_idempotent_identities(m, n):
    params = Params(m, n, 2, 2, 1, 1)
    fd = build_factor_data(params)
    F = params.field
    M = params.a_modulus
    total = pr.P_ZERO
    for eps in fd.idempotents:  # raises if the certificate fails
        total = pr.p_add(F, total, eps)
        sq = pr.p_mod(F, pr.p_mul(F, eps, eps), M)
        assert sq == eps
    assert pr.p_mod(F, total, M) == (1,)
    for i, a in enumerate(fd.idempotents):
        for b in fd.idempotents[:i]:
            assert pr.p_mod(F, pr.p_mul(F, a, b), M) == ()


def test_r_equals_one_gives_unit_idempotent():
    # x + 1 is already irreducible: single factor, idempotent 1
    params = Params(1, 1, 2, 2, 1, 1)
    fd = build_factor_data(params)
    assert len(fd.entries) == 1
    assert fd.idempotents[0] == (1,)
    assert fd.cofactors == ((1,),)


def test_idempotent_kills_own_factor_power():
    # eps_j * f_j^e = 0 in the big quotient ring
    params = Params(1, 3, 2, 2, 1, 1)
    fd = build_factor_data(params)
    F = params.field
    e = params.nilpotency
    for ent, eps in zip(fd.entries, fd.idempotents):
        fe = pr.p_pow(F, ent.f, e)
        assert pr.p_mod(F, pr.p_mul(F, eps, fe), params.a_modulus) == ()


def test_power_reassembly():
    params = Params(1, 3, 2, 2, 1, 1)
    fd = build_factor_data(params)
    F = params.field
    prod = pr.P_ONE
    for ent in fd.entries:
        prod = pr.p_mul(F, prod, pr.p_pow(F, ent.f, params.nilpotency))
    assert prod == params.a_modulus


def test_pairwise_coprime():
    fd = build_factor_data(Params(1, 7, 2, 2, 1, 1))
    F = GF2m(1)
    ents = fd.entries
    for i in range(len(ents)):
        for j in range(i):
            assert pr.p_gcd(F, ents[i].f, ents[j].f) == (1,)


# (m, n, k, lam, delta, alpha): lam not a power of two (so 2^J > e),
# delta != 1, alpha != 1, k = 3 and m = 16
_XGCD_POINTS = [
    (1, 7, 2, 2, 1, 1), (2, 7, 2, 2, 1, 1), (3, 5, 2, 2, 1, 1), (4, 15, 2, 2, 1, 1),
    (2, 7, 2, 2, 3, 2), (1, 7, 3, 3, 1, 1), (3, 5, 2, 3, 5, 1), (2, 15, 2, 5, 2, 3),
    (8, 51, 2, 2, 7, 1), (3, 1, 2, 2, 5, 1), (16, 3, 3, 2, 4097, 3), (5, 93, 2, 7, 3, 2),
    (4, 85, 3, 3, 9, 2), (1, 255, 2, 2, 1, 1),
]


# a point at k = lam = 2, delta = alpha = 1 is named by m and n alone
_XGCD_CASES = [pytest.param(*pt, id="-".join(map(str, pt[:2] if pt[2:] == (2, 2, 1, 1) else pt)))
               for pt in _XGCD_POINTS]


@pytest.mark.parametrize("m,n,k,lam,delta,alpha", _XGCD_CASES)
def test_lazy_idempotents_match_global_xgcd(m, n, k, lam, delta, alpha):
    # reference: one xgcd of C_j^e against f_j^e at the full degree e*n
    params = Params(m, n, k, lam, delta, alpha)
    fd = build_factor_data(params)
    F = params.field
    e = params.nilpotency
    expect = []
    for ent, cof in zip(fd.entries, fd.cofactors):
        cof_e = pr.p_pow(F, cof, e)
        g, s, _ = pr.p_xgcd(F, cof_e, pr.p_pow(F, ent.f, e))
        assert g == (1,)
        expect.append(pr.p_mod(F, pr.p_mul(F, s, cof_e), params.a_modulus))
    assert fd.idempotents == tuple(expect)


@pytest.mark.parametrize(
    "corrupt",
    [
        # shares the factor x + 1
        pytest.param(lambda F, c: (pr.p_add(F, c[0], (1,)),) + c[1:], id="shares-factor"),
        # coprime to x + 1 but no longer divisible by the cubics
        pytest.param(lambda F, c: (pr.p_add(F, c[0], (0, 1, 1)),) + c[1:], id="not-divisible"),
        # each cofactor exact, but paired with another factor
        pytest.param(lambda F, c: (c[1], c[0]) + c[2:], id="swapped"),
    ],
)
def test_certificate_rejects_corrupted_cofactor(corrupt):
    params = Params(1, 7, 2, 2, 1, 1)
    fd = build_factor_data(params)
    fd.cofactors = corrupt(params.field, fd.cofactors)
    with pytest.raises(ArithmeticError, match="idempotents do not sum to 1"):
        fd.idempotents


def test_certificate_rejects_factor_of_another_polynomial():
    # x^2 + x + 1 divides x^3 + 1, not x^7 + 1
    params = Params(1, 7, 2, 2, 1, 1)
    fd = factorizer.FactorData(params, (factorizer.FactorEntry((1, 1, 1), 2),))
    with pytest.raises(ArithmeticError, match=r"factor \(1, 1, 1\) does not divide"):
        fd.cofactors


@pytest.mark.parametrize("m,n,k,lam,delta,alpha", _XGCD_CASES)
def test_local_cofactor_matches_full_cofactor(m, n, k, lam, delta, alpha):
    # reference: the context's root v of u^2, a binomial worked out
    # without the cofactor, is w * f^(2^(k-1)) mod f^e for the unit
    # w = alpha_root * C^(2^(k-1)), C the full cofactor
    params = Params(m, n, k, lam, delta, alpha)
    fd = build_factor_data(params)
    F = params.field
    for ent, cof in zip(fd.entries, fd.cofactors):
        ctx = make_chain_ctx(params, ent.f)
        fe = ctx.f_pows[ctx.e]
        w = pr.p_scale(F, pr.p_powmod(F, cof, 1 << (k - 1), fe), params.alpha_root)
        assert ctx.u_root == pr.p_mod(F, pr.p_mul(F, w, ctx.f_pows[1 << (k - 1)]), fe)


# ----------------------------------------------------------------------
# Factor degrees from cyclotomic cosets, against the factorizer
# ----------------------------------------------------------------------

def _generator(F):
    """A generator of the multiplicative group, found by its order."""
    q1 = F.order - 1
    return next(g for g in range(2, F.order)
                if all(F.pow(g, q1 // p) != 1 for p in _factor_int(q1)))


# n per m; the deltas are 1, 3, q - 1 and a generator (only 1 at m = 1).
# n = 255 factors in 0.15-0.3 s at delta 1 but in up to 2 s at other
# deltas, so it runs at delta 1 only.
_DEGREE_GRID = {
    1: (1, 3, 7, 9, 15, 17, 21, 31, 45, 63, 73, 127, 255),
    2: (3, 5, 7, 9, 15, 21, 31, 63, 85),
    3: (3, 7, 9, 21, 31, 63, 73),
    4: (3, 5, 9, 15, 17, 51, 85),
    5: (3, 11, 31, 33),
    6: (3, 7, 9, 21, 63, 65),
    7: (3, 5, 127),
    8: (3, 5, 15, 17, 51),
}


def _degree_cases():
    for m, ns in _DEGREE_GRID.items():
        F = GF2m(m)
        deltas = [1] if m == 1 else sorted({1, 3, F.order - 1, _generator(F)})
        for n in ns:
            for c in deltas:
                yield F, n, c
    for m in (3, 4, 8):
        yield GF2m(m), 255, 1
    # x^4 + x^3 + 1 instead of the built-in x^4 + x + 1
    F16 = GF2m(4, reduction=25)
    for n in (15, 51):
        for c in (1, _generator(F16), 6):
            yield F16, n, c
    # No log tables at m = 13; 2^13 - 1 is prime, so 2 generates.
    F13 = GF2m(13)
    for n in (3, 5, 9):
        yield F13, n, 2


def test_factor_degrees_match_factorizer():
    # The factorizer certifies its factors by factor_degrees, so Rabin's
    # test checks each of them here, independently of the cosets.
    cases = 0
    for F, n, c in _degree_cases():
        factors = factor_xn_delta(F, n, c)
        assert all(is_irreducible(F, f) for f, _ in factors), (F, n, c)
        assert factor_degrees(F, n, c) == sorted(d for _, d in factors), (F, n, c)
        cases += 1
    assert cases == 180


# ----------------------------------------------------------------------
# The coset certificate: no Rabin test on the request path, and a
# factorizer that emits a reducible or wrong-degree part is rejected
# ----------------------------------------------------------------------

def _counting(monkeypatch, module, name):
    """Wrap module.name (and every package binding of it) to count calls."""
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)
    for mod in (pr, factorizer):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("m,n", [(1, 1), (1, 7), (2, 7), (4, 15), (8, 51), (8, 255)])
def test_build_factor_data_runs_no_rabin_test(monkeypatch, m, n):
    params = Params(m, n, 2, 2, 1, 1)
    rabin = _counting(monkeypatch, pr, "is_irreducible")
    powmod = _counting(monkeypatch, pr, "p_powmod")
    fd = build_factor_data(params)
    assert rabin == []
    assert [ent.degree for ent in fd.entries] == factor_degrees(params.field, n, 1)
    # one distinct degree: the whole polynomial goes to the equal-degree
    # split, with no Frobenius powering
    assert (powmod == []) == (len(set(factor_degrees(params.field, n, 1))) == 1)


def test_unsplit_part_is_rejected(monkeypatch, capsys):
    # x^7 + 1 = (x + 1) * two cubics; the cubics' part comes back whole
    monkeypatch.setattr(factorizer, "_equal_degree", lambda F, g, d, rng: [g])
    with pytest.raises(ArithmeticError, match=r"reducible: \[\(1, 1, 1, 1, 1, 1, 1\)\]"):
        factor_xn_delta(F2, 7, 1)
    assert cli.main(["factor", "--m", "1", "--n", "7"]) == 1
    assert "differ from the coset sizes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "degrees,message",
    [
        pytest.param([1, 2, 4], r"the degree-2 part has degree 0, not 2 \* 1", id="no-such-degree"),
        # the degree-3 gcd also collects x + 1
        pytest.param([3, 4], r"the degree-3 part has degree 7, not 3 \* 1", id="divisor-degree"),
        pytest.param([1, 1, 5], r"the degree-1 part has degree 1, not 1 \* 2", id="count"),
        # the cubics never split into quadratics, so the draws run out
        pytest.param([1, 2, 2, 2], "no split of a degree-3 part into degree-2 factors", id="top-degree"),
    ],
)
def test_wrong_degree_list_is_rejected(monkeypatch, degrees, message):
    monkeypatch.setattr(factorizer, "factor_degrees", lambda F, n, c: degrees)
    with pytest.raises(ArithmeticError, match=message):
        factor_xn_delta(F2, 7, 1)


def test_part_of_wrong_degree_is_rejected(monkeypatch):
    # a Frobenius that returns x makes the degree-1 gcd the whole input
    monkeypatch.setattr(pr, "p_powmod", lambda F, base, e, modulus: pr.P_X)
    with pytest.raises(ArithmeticError, match=r"the degree-1 part has degree 7, not 1 \* 1"):
        factor_xn_delta(F2, 7, 1)


def test_factor_degrees_large_order_small_memory():
    # t = ord(delta) = 65535 at m = 16, so n * t is about 2.7e8; the
    # bookkeeping must stay of size n.
    F = GF2m(16)
    g = _generator(F)
    tracemalloc.start()
    try:
        degrees = factor_degrees(F, 4095, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(degrees) == 4095
    assert degrees == sorted(degrees)
    assert peak < 1 << 20


def test_factor_degrees_rejects_even_n_and_zero():
    with pytest.raises(ValueError):
        factor_degrees(F2, 4, 1)
    with pytest.raises(ValueError):
        factor_degrees(F4, 3, 0)
    with pytest.raises(ValueError):
        factor_degrees(F4, 3, 4)
