import functools
import gc
import itertools
import random
import weakref

import pytest

from constacodes.gf2m import GF2m
from constacodes import ambient as amb
from constacodes import enumerator as en
from constacodes import polyring as pr
from constacodes.factorizer import build_factor_data
from constacodes.params import Params

from reference import (TableField, amb_add, amb_mul, code_generators, greedy_generators,
                       inner_product, matrix_closure, table_scale, word_mul)


def r_mul(F, a, b):
    """The product in R of two tuples of u-digits: the tuple body that
    the int word ring replaced, kept as its reference."""
    w = len(a)
    out = [0] * w
    for i, ai in enumerate(a):
        if ai:
            for j in range(w - i):
                bj = b[j]
                if bj:
                    out[i + j] ^= F.mul(ai, bj)
    return tuple(out)


def gamma_digits(params):
    """gamma = delta + alpha*u^2 as a tuple of u-digits."""
    return tuple(params.delta if i == 0 else (params.alpha if i == 2 else 0)
                 for i in range(params.u_exp))


def rp_mul(params, a, b):
    """The product of two tuple words (N coefficients of u-digit tuples),
    x^N folding to gamma: the reference for word_mul."""
    F = params.field
    N = params.length
    gamma = gamma_digits(params)
    w = params.u_exp
    acc = [[0] * w for _ in range(N)]
    zero = (0,) * w
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            if bj == zero:
                continue
            prod = r_mul(F, ai, bj)
            p = i + j
            if p >= N:
                p -= N
                prod = r_mul(F, gamma, prod)
            row = acc[p]
            for t, dig in enumerate(prod):
                row[t] ^= dig
    return tuple(tuple(row) for row in acc)


def to_int(params, word):
    """The int word of a tuple word: digit t of coefficient i at bit
    (i*w + t)*m."""
    m, w = params.m, params.u_exp
    return sum(d << ((i * w + t) * m)
               for i, coeff in enumerate(word) for t, d in enumerate(coeff))


def to_tuple(params, v):
    """The tuple word of an int word."""
    m, w = params.m, params.u_exp
    mask = (1 << m) - 1
    return tuple(tuple(v >> ((i * w + t) * m) & mask for t in range(w))
                 for i in range(params.length))


def word_pow(bs, a, e):
    """a^e by repeated products."""
    r = 1
    for _ in range(e):
        r = word_mul(bs, r, a)
    return r


def rand_amb(params, rng):
    width = params.lam * params.length
    return (
        pr.normalize(rng.randrange(params.field.order) for _ in range(width)),
        pr.normalize(rng.randrange(params.field.order) for _ in range(width)),
    )


# ----------------------------------------------------------------------
# The structure map
# ----------------------------------------------------------------------

# (m, n, k, lam, delta, alpha): 8-bit lanes at m = 1, 2; 16 at m = 5;
# 32 at m = 9, 16.
LIFT_POINTS = [
    (1, 1, 2, 2, 1, 1), (1, 5, 3, 3, 1, 1), (2, 3, 2, 4, 2, 3), (2, 5, 3, 2, 3, 2),
    (5, 3, 2, 3, 7, 9), (5, 1, 3, 4, 19, 30), (9, 1, 2, 2, 300, 7),
    (9, 3, 3, 3, 5, 411), (16, 1, 2, 4, 4097, 3), (16, 5, 2, 2, 40000, 12345),
]


def test_lift_of_one(p1122):
    assert amb.psi_lift(p1122, ((1,), ())) == 1


def test_lift_core_fourth_power_is_alpha_u_squared():
    # Psi((x + d0)^4) = alpha * u^2 at k=2, n=1, any m, delta, alpha
    for m, delta, alpha in [(1, 1, 1), (2, 2, 3), (3, 5, 2)]:
        p = Params(m, 1, 2, 2, delta, alpha)
        f4 = pr.p_pow(p.field, p.base_poly, 4)
        got = amb.psi_lift(p, (f4, ()))
        # digit 2 of coefficient 0
        want = alpha << (2 * m)
        assert got == want


@pytest.mark.parametrize("mp", [
    (1, 1, 2, 2, 1, 1), (2, 3, 3, 4, 2, 3), (5, 3, 2, 3, 7, 9),
    (9, 1, 4, 2, 300, 7), (16, 3, 3, 5, 40000, 12345),
])
def test_plain_side_binomials_match_core_powers(mp):
    # (x^n + delta_root)^(2^k) = x^N + delta, so u^2 and M are binomial
    # expressions; here they are checked against the powers themselves.
    p = Params(*mp)
    F = p.field
    core = pr.p_pow(F, p.base_poly, 1 << p.k)
    assert p.u_squared_poly == pr.p_scale(F, core, F.inv(p.alpha))
    assert p.a_modulus == pr.p_pow(F, p.base_poly, p.nilpotency)


def test_inverse_of_u_squared(p1122):
    word = 0b0100  # u^2: digit 2 of coefficient 0
    xi = amb.psi_inverse(p1122, word)
    assert xi == (p1122.u_squared_poly, ())
    assert amb.psi_inverse(p1122, 0) == ((), ())
    # Every single-digit word: c at digit t of coefficient i is c x^i u^t,
    # and u^2 = alpha^(-1) * (x^n + delta_root)^(2^k).
    for p in (p1122, Params(5, 1, 3, 4, 19, 30)):
        F, m, w = p.field, p.m, p.u_exp
        u2 = pr.p_scale(F, pr.p_pow(F, p.base_poly, 1 << p.k), F.inv(p.alpha))
        for i in range(p.length):
            for t in range(w):
                part = pr.p_mul(F, (0,) * i + (1,), pr.p_pow(F, u2, t // 2))
                for c in F.nonzero_elements():
                    want = pr.p_scale(F, part, c)
                    got = amb.psi_inverse(p, c << (i * w + t) * m)
                    assert got == ((want, ()) if t % 2 == 0 else ((), want))


def test_inverse_refuses_words_outside_the_space(p1122):
    # 16 bits at (1,1,2,2,1,1): 1 << 16 and -1 are no words, and would
    # not lift back to themselves.
    assert amb.psi_lift(p1122, amb.psi_inverse(p1122, (1 << 16) - 1)) == (1 << 16) - 1
    for word in (1 << 16, -1):
        with pytest.raises(ValueError):
            amb.psi_inverse(p1122, word)


@pytest.mark.parametrize("mp", [
    (1, 1, 2, 2, 1, 1), (1, 3, 2, 2, 1, 1), (2, 1, 2, 2, 1, 1),
    # lam >= 4 with delta, alpha != 1: psi_inverse's Horner sums run
    # through every power of u^2 below lam.
    (3, 1, 2, 4, 5, 6), (2, 3, 3, 3, 2, 3), (4, 1, 2, 5, 7, 9),
] + LIFT_POINTS[1:])  # LIFT_POINTS[0] is the first point above
def test_roundtrip_random(mp):
    p = Params(*mp)
    rng = random.Random(17)
    for _ in range(1000):
        a = rand_amb(p, rng)
        assert amb.psi_inverse(p, amb.psi_lift(p, a)) == a
    assert amb.psi_lift(p, amb.psi_inverse(p, 1)) == 1


@pytest.mark.parametrize("mp", [(1, 1), (1, 3)])
def test_ring_isomorphism_random(mp):
    m, n = mp
    p = Params(m, n, 2, 2, 1, 1)
    bs = amb.bit_space(p)
    rng = random.Random(23)
    for _ in range(1000):
        a = rand_amb(p, rng)
        b = rand_amb(p, rng)
        assert amb.psi_lift(p, amb_add(p, a, b)) == (
            amb.psi_lift(p, a) ^ amb.psi_lift(p, b)
        )
        assert amb.psi_lift(p, amb_mul(p, a, b)) == word_mul(
            bs, amb.psi_lift(p, a), amb.psi_lift(p, b)
        )


@pytest.mark.parametrize("mp", [(1, 1), (1, 3), (2, 3)])
def test_core_power_images(mp):
    # Psi((x^n+d0)^(i + l*2^k)) = alpha^l * u^(2l) * (x^n+d0)^i: the lift
    # sends the 2^k-th power of the core polynomial to alpha*u^2, and is
    # multiplicative.  (At n=1 the step 2^k coincides with the word length.)
    m, n = mp
    p = Params(m, n, 2, 2, 1, 1)
    F = p.field
    N = p.length
    bs = amb.bit_space(p)
    step = 1 << p.k
    rng = random.Random(29)
    base_word = to_int(p, [(c,) + (0,) * (p.u_exp - 1) for c in p.base_poly])
    samples = [(i, l) for i in range(N) for l in range(p.lam)]
    for i, l in rng.sample(samples, min(12, len(samples))):
        lhs_poly = pr.p_mod(F, pr.p_pow(F, p.base_poly, i + l * step), p.a_modulus)
        lhs = amb.psi_lift(p, (lhs_poly, ()))
        rhs = word_pow(bs, base_word, i)
        for _ in range(2 * l):
            rhs = bs.mul_u(rhs)
        rhs = bs.scale(rhs, F.pow(p.alpha, l))
        assert lhs == rhs


def test_roundtrip_and_hom_wider_u_space():
    # lam=3: six u-digits per coefficient
    p = Params(1, 1, 2, 3, 1, 1)
    bs = amb.bit_space(p)
    rng = random.Random(19)
    for _ in range(300):
        a, b = rand_amb(p, rng), rand_amb(p, rng)
        la, lb = amb.psi_lift(p, a), amb.psi_lift(p, b)
        assert amb.psi_inverse(p, la) == a
        assert amb.psi_lift(p, amb_mul(p, a, b)) == word_mul(bs, la, lb)


def reference_lift(params, amb_elem):
    """The structure map one coefficient at a time: coefficient x^(N*l + i)
    of a0 adds c * gamma^l to word coefficient i, and of a1 adds
    c * u * gamma^l.  gamma^l is taken for every l the parts reach, so
    unreduced parts lift too."""
    F = params.field
    N = params.length
    w = params.u_exp
    gamma = gamma_digits(params)
    chunks = max(len(x) for x in amb_elem) // N + 1
    pows = [(1,) + (0,) * (w - 1)]
    while len(pows) < chunks:
        pows.append(r_mul(F, pows[-1], gamma))
    rows = [[(t, g) for t, g in enumerate(gp) if g] for gp in pows]
    u_rows = [[(t + 1, g) for t, g in row if t + 1 < w] for row in rows]
    acc = [[0] * w for _ in range(N)]
    for part_rows, xi in zip((rows, u_rows), amb_elem):
        for idx, c in enumerate(xi):
            if c:
                l, i = divmod(idx, N)
                coeff = acc[i]
                for t, g in part_rows[l]:
                    coeff[t] ^= F.mul(g, c)
    return tuple(tuple(coeff) for coeff in acc)


@pytest.mark.parametrize("mp", LIFT_POINTS)
def test_lane_lift_matches_reference(mp):
    p = Params(*mp)
    F = p.field
    rng = random.Random(str(mp))
    width = p.lam * p.length

    def rand_part(length):
        return pr.normalize([rng.randrange(F.order) for _ in range(length - 1)]
                            + [rng.randrange(1, F.order)])

    full = rand_part(width)
    cases = [((), ()), (full, ()), ((), full), (full, rand_part(width)),
             ((1,), ()), ((), (1,))]
    cases += [rand_amb(p, rng) for _ in range(20)]
    for a in cases:
        want = reference_lift(p, a)
        assert amb.psi_lift(p, a) == to_int(p, want)
        parts = (pr.pack(F, a[0]), pr.pack(F, a[1]))
        assert tuple(amb.flat_digits(p, amb.lift_digits(p, parts))) == sum(want, ())
    # Unreduced parts up to degree 2 * deg M - 1, as products of two
    # reduced ones reach.
    for _ in range(10):
        a = (rand_part(2 * width), rand_part(rng.randrange(1, 2 * width)))
        parts = (pr.pack(F, a[0]), pr.pack(F, a[1]))
        flat = amb.flat_digits(p, amb.lift_digits(p, parts))
        assert tuple(flat) == sum(reference_lift(p, a), ())


@pytest.mark.parametrize("mp", LIFT_POINTS)
def test_long_part_lifts_as_its_reduction(mp):
    # A part of degree 2*lam*N .. 3*lam*N - 1, past what a product of two
    # reduced parts reaches, lifts as its reduction mod M, as a0 and as a1.
    p = Params(*mp)
    F = p.field
    rng = random.Random(str(mp))
    width = p.lam * p.length
    longs = [(0,) * 2 * width + (1,)]  # x^(2*lam*N)
    for _ in range(5):
        degree = rng.randrange(2 * width, 3 * width)
        longs.append(pr.normalize([rng.randrange(F.order) for _ in range(degree)]
                                  + [rng.randrange(1, F.order)]))
    for part in longs:
        assert 2 * width <= len(part) - 1 < 3 * width
        long, reduced = pr.pack(F, part), pr.pack(F, pr.p_mod(F, part, p.a_modulus))
        assert amb.lift_digits(p, (long, 0)) == amb.lift_digits(p, (reduced, 0))
        assert amb.lift_digits(p, (0, long)) == amb.lift_digits(p, (0, reduced))


@pytest.mark.parametrize("mp", LIFT_POINTS)
def test_word_ring_matches_tuple_reference(mp):
    # Each ring operation on int words against its tuple reference, on 0,
    # 1, the all-ones word and random words.
    p = Params(*mp)
    F, N, w = p.field, p.length, p.u_exp
    bs = amb.bit_space(p)
    gamma = gamma_digits(p)
    rng = random.Random(str(mp))
    words = [0, 1, (1 << bs.dim) - 1, rng.getrandbits(bs.dim), rng.getrandbits(bs.dim)]
    scalars = {1, F.order - 1, rng.randrange(1, F.order)}
    for a in words:
        ta = to_tuple(p, a)
        assert to_int(p, ta) == a
        for c in scalars:
            assert bs.scale(a, c) == to_int(p, [[F.mul(d, c) for d in x] for x in ta])
        assert bs.mul_u(a) == to_int(p, [(0,) + x[:-1] for x in ta])
        shifted = ta
        for i in range(N + 1):
            assert bs.mul_x(a, i) == to_int(p, shifted)
            shifted = (r_mul(F, gamma, shifted[-1]),) + shifted[:-1]
        for b in words[2:]:
            tb = to_tuple(p, b)
            assert word_mul(bs, a, b) == to_int(p, rp_mul(p, ta, tb))
            inner = [0] * w
            for x, y in zip(ta, tb):
                inner = [s ^ d for s, d in zip(inner, r_mul(F, x, y))]
            assert inner_product(p, a, b) == to_int(p, [inner])


def test_bit_space_lives_and_dies_with_its_params():
    # One space per Params instance, equal values or not, held no longer
    # than the instance.
    p, twin = Params(1, 3, 2, 2, 1, 1), Params(1, 3, 2, 2, 1, 1)
    bs = amb.bit_space(p)
    assert amb.bit_space(p) is bs
    assert amb.bit_space(twin) is not bs
    ref = weakref.ref(bs)
    del p, bs
    gc.collect()
    assert ref() is None
    assert amb.bit_space(twin).dim == 48


def test_lift_needs_no_reduction_mod_m():
    # psi(M) = 0, so the unreduced eps_j * g of every factor j lifts to the
    # same word as eps_j * g mod M.
    p = Params(2, 7, 2, 3, 2, 3)
    F = p.field
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    assert len(fd.entries) > 2
    dv = fd.modulus_divisor
    rng = random.Random(47)
    above = 0
    for j, ctx in enumerate(ctxs):
        total = en.count_ideals(ctx.q, p.k, p.lam)
        for start in rng.sample(range(total), 15):
            desc = next(en.enumerate_ideals(p, ctx, j + 1, start))
            for g in amb.component_generators(p, fd, j, desc, ctx):
                reduced = tuple(pr.k_mod(F, x, dv) for x in g)
                above += reduced != g
                assert amb.flat_digits(p, amb.lift_digits(p, g)) == amb.flat_digits(
                    p, amb.lift_digits(p, reduced))
                plain = tuple(pr.unpack(F, x) for x in g)
                assert to_int(p, reference_lift(p, plain)) == amb.psi_lift(
                    p, tuple(pr.unpack(F, x) for x in reduced))
    assert above > 0


def test_dual_rank_law_multifactor(p1322, fd1322, ctxs1322):
    # No materialization at dimension 48.  Every dual row is R-orthogonal
    # to every code row, so the dual lies in the orthogonal complement;
    # with rank of code + rank of dual = 48 it is the whole complement.
    p3 = Params(3, 1, 2, 2, 1, 1)
    fd3 = build_factor_data(p3)
    cases = [(p1322, fd1322, ctxs1322), (p3, fd3, en.chain_contexts(p3, fd3))]
    rng = random.Random(61)
    for p, fd, ctxs in cases:
        bs = amb.bit_space(p)
        codes = list(itertools.islice(en.enumerate_codes(p, fd, ctxs), 2000))
        for code in rng.sample(codes, 8):
            basis = amb.code_bit_basis(p, fd, code, ctxs).basis
            dual = amb.dual_bit_basis(p, basis)
            assert len(basis) + len(dual) == bs.dim
            for d in dual:
                assert all(inner_product(p, d, c) == 0 for c in basis)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (1, 3)])
def test_trace_form_matches_inner_product(m, n):
    # B(x, y) read from the Gram matrix is the trace of the top u-digit
    # of the R-valued inner product.
    p = Params(m, n, 2, 2, 1, 1)
    F = p.field
    bs = amb.bit_space(p)
    rng = random.Random(67)
    for _ in range(200):
        x, y = rng.getrandbits(bs.dim), rng.getrandbits(bs.dim)
        # form*x holds bit p of the pairing at bit dim-1-p.
        y_rev = int(f"{y:0{bs.dim}b}"[::-1], 2)
        bit = bin(bs.apply(bs.form, x) & y_rev).count("1") & 1
        top = inner_product(p, x, y) >> ((p.u_exp - 1) * m)
        assert bit == F.trace(top)


def test_dual_rejects_non_ideal(p1122):
    bs = amb.bit_space(p1122)
    with pytest.raises(ValueError, match="not an ideal"):
        amb.dual_bit_basis(p1122, bs.rref([1]))
    with pytest.raises(ValueError, match="not an ideal"):
        amb.dual_code(p1122, [0, 1])


def test_mul_x_wraps_with_gamma(p1122):
    # the shift rotates with the gamma twist on the wrapped coefficient
    bs = amb.bit_space(p1122)
    w = 1
    for _ in range(p1122.length):
        w = bs.mul_x(w)
    # x^N = gamma = delta + alpha*u^2: digits 0 and 2 of coefficient 0
    expect = 0b0101
    assert w == expect


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------

def test_materialize_zero_and_full(p1122, fd1122):
    e = p1122.nilpotency
    zero = en.CodeDescriptor((en.IdealDescriptor(1, 3, e),))
    full = en.CodeDescriptor((en.IdealDescriptor(1, 3, 0),))
    assert amb.materialize_code(p1122, fd1122, zero) == {0}
    words = amb.materialize_code(p1122, fd1122, full)
    assert len(words) == 1 << 16


def test_materialize_family4_row(p1122, fd1122):
    code = en.CodeDescriptor((en.IdealDescriptor(1, 4, 0, 1),))
    words = amb.materialize_code(p1122, fd1122, code)
    assert len(words) == 1 << 15


def test_materialize_cap_refusal(p1122, fd1122, monkeypatch):
    full = en.CodeDescriptor((en.IdealDescriptor(1, 3, 0),))
    monkeypatch.setattr(amb, "DEFAULT_MAT_CAP", 1 << 10)
    with pytest.raises(ValueError):
        amb.materialize_code(p1122, fd1122, full)


def test_component_count_must_match_factors(p1322, fd1322, ctxs1322):
    # (1,3) has two factors: a code with one or three components is
    # malformed, and is neither sized nor lifted as if it had two.
    calls = [lambda code: en.code_size(p1322, fd1322, code),
             lambda code: amb.code_ambient_generators(p1322, fd1322, code, ctxs1322),
             lambda code: amb.materialize_code(p1322, fd1322, code, ctxs1322)]
    full = en.IdealDescriptor(1, 3, 0)
    for components in [(full,), (full, full._replace(factor=2), full._replace(factor=3))]:
        for call in calls:
            with pytest.raises(ValueError, match="zip"):
                call(en.CodeDescriptor(components))


def test_materialized_codes_are_shift_closed(p1122, fd1122, ctx1122):
    bs = amb.bit_space(p1122)
    rng = random.Random(37)
    descs = list(en.enumerate_ideals(p1122, ctx1122, 1))
    for d in rng.sample(descs, 12):
        words = amb.materialize_code(p1122, fd1122, en.CodeDescriptor((d,)))
        sample = rng.sample(sorted(words), min(20, len(words)))
        for w in sample:
            assert bs.mul_x(w) in words
            assert bs.mul_u(w) in words


def test_code_bit_basis_rank_matches_size_multifactor(p1322, fd1322, ctxs1322):
    rng = random.Random(41)
    codes = list(itertools.islice(en.enumerate_codes(p1322, fd1322, ctxs1322), 3000))
    for code in rng.sample(codes, 25):
        ideal = amb.code_bit_basis(p1322, fd1322, code, ctxs1322)
        assert ideal.size == en.code_size(p1322, fd1322, code)
        bs = amb.bit_space(p1322)
        assert bs.is_invariant(ideal.basis)


def test_two_combined_generators_generate(p1322, fd1322, ctxs1322):
    bs = amb.bit_space(p1322)
    rng = random.Random(43)
    codes = list(itertools.islice(en.enumerate_codes(p1322, fd1322, ctxs1322), 3000))
    for code in rng.sample(codes, 15):
        gens = code_generators(p1322, fd1322, code, ctxs1322)
        assert len(gens) <= 2
        vecs = [amb.psi_lift(p1322, g) for g in gens]
        assert bs.closure(vecs) == amb.code_bit_basis(p1322, fd1322, code, ctxs1322).basis


# ----------------------------------------------------------------------
# Brute-force ideal oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_135(p1122):
    return amb.brute_force_ideals(p1122)


def test_oracle_finds_135(oracle_135):
    assert len(oracle_135) == 135


def test_oracle_has_zero_and_unit(p1122, oracle_135):
    dims = {i.dim for i in oracle_135}
    assert 0 in dims and 16 in dims
    assert sum(1 for i in oracle_135 if i.dim == 0) == 1
    assert sum(1 for i in oracle_135 if i.dim == 16) == 1


def test_oracle_sum_closed(p1122, oracle_135):
    bs = amb.bit_space(p1122)
    bases = [i.basis for i in oracle_135]
    found = set(bases)
    rng = random.Random(47)
    for _ in range(300):
        a, b = rng.sample(bases, 2)
        assert bs.rref(a + b) in found


def test_oracle_equals_enumeration(p1122, fd1122, ctx1122, oracle_135):
    enum_bases = {
        amb.code_bit_basis(p1122, fd1122, en.CodeDescriptor((d,))).basis
        for d in en.enumerate_ideals(p1122, ctx1122, 1)
    }
    assert enum_bases == {i.basis for i in oracle_135}


def test_oracle_invariance(p1122, oracle_135):
    bs = amb.bit_space(p1122)
    for ideal in oracle_135:
        assert bs.is_invariant(ideal.basis)


def test_oracle_dim_cap(p1322):
    with pytest.raises(ValueError):
        amb.brute_force_ideals(p1322)  # dimension 48 > 32


def _exhaustive_ideals(bs):
    """The walk's reference: close every single vector, then add ideals
    pairwise until nothing changes."""
    found = {(): None}
    for v in range(1, 1 << bs.dim):
        found.setdefault(bs.closure((v,)), None)
    while True:
        bases = list(found)
        for a, b in itertools.combinations(bases, 2):
            found.setdefault(bs.rref(a + b), None)
        if len(found) == len(bases):
            return sorted(found, key=lambda b: (len(b), b))


@pytest.mark.parametrize("point,delta_root", [((3, 1, 2, 2, 5, 6), 7), ((2, 3, 2, 2, 2, 3), 2)],
                         ids=["3-1-2-2-5-6", "2-3-2-2-2-3"])
def test_nilradical_core_map(point, delta_root):
    # The oracle's map c = x^n + delta_root, applied 2^k times, is
    # multiplication by alpha*u^2.  At (3,1,2,2,5,6) delta_root is not
    # delta, so a map built from delta fails there.
    p = Params(*point)
    assert p.delta_root == delta_root
    bs = amb.bit_space(p)
    _, core = amb._nilradical(p)
    rng = random.Random(str(point))
    for _ in range(20):
        v = w = rng.getrandbits(bs.dim)
        for _ in range(1 << p.k):
            v = core(v)
        assert v == bs.scale(bs.mul_u(bs.mul_u(w)), p.alpha)


def test_walk_equals_exhaustive_closure(p1122, oracle_135):
    assert _exhaustive_ideals(amb.bit_space(p1122)) == [i.basis for i in oracle_135]


@functools.cache
def _walk(point):
    p = Params(*(point + (1, 1))[:6])
    return p, [i.basis for i in amb.brute_force_ideals(p)]


# (m, n, k, lam), with delta = alpha = 1, and the number of ideals there.
WALK_POINTS = [((1, 1, 2, 3), 607), ((2, 1, 2, 2), 789), ((1, 1, 3, 2), 2519)]
WALK_IDS = ["-".join(map(str, point)) for point, _ in WALK_POINTS]
# (m, n, k, lam, delta, alpha) away from delta = alpha = 1.
TWISTED_WALK_POINTS = [((2, 1, 2, 2, 2, 3), 789)]


@pytest.mark.parametrize(
    "point,count", WALK_POINTS + TWISTED_WALK_POINTS,
    ids=WALK_IDS + ["-".join(map(str, point)) for point, _ in TWISTED_WALK_POINTS])
def test_walk_equals_enumeration(point, count):
    p, walked = _walk(point)
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    enum_bases = {
        amb.code_bit_basis(p, fd, code, ctxs).basis for code in en.enumerate_codes(p, fd, ctxs)
    }
    assert len(walked) == len(set(walked)) == count
    assert enum_bases == set(walked)


@pytest.mark.parametrize("point,count", WALK_POINTS, ids=WALK_IDS)
def test_walk_closed_under_duals(point, count):
    # The dual of a gamma-constacyclic code is gamma^(-1)-constacyclic:
    # the duals are the ideals of the ring twisted by gamma^(-1) = sum of
    # u^(2i), i < lam, walked here with the nilpotent maps u and x + 1.
    # gamma = 1 + u^2 is its own inverse only at lam = 2.
    p, walked = _walk(point)
    F, w = p.field, p.u_exp
    inv = sum(1 << (2 * i * p.m) for i in range(p.lam))
    twisted = amb.BitSpace(F, w, p.length, inv)
    x_plus_1 = [col ^ (1 << i) for i, col in enumerate(twisted.linearize(twisted.mul_x))]
    duals = [amb.dual_bit_basis(p, basis) for basis in walked]
    assert all(len(b) + len(d) == twisted.dim for b, d in zip(walked, duals))
    assert len(set(duals)) == count
    assert set(duals) == set(twisted.lattice([twisted.linearize(twisted.mul_u), x_plus_1]))
    assert (set(duals) == set(walked)) == (p.lam == 2)


def test_recover_generators(p1122, oracle_135):
    bs = amb.bit_space(p1122)
    rng = random.Random(53)
    for ideal in rng.sample(oracle_135, 25):
        gens = amb.recover_generators(p1122, ideal)
        assert len(gens) <= 2
        assert bs.closure(gens) == ideal.basis


@pytest.mark.parametrize("point,count", [((1, 1, 2, 2), 135)] + TWISTED_WALK_POINTS
                         + WALK_POINTS[:1], ids=["1-1-2-2", "2-1-2-2-2-3", "1-1-2-3"])
def test_nakayama_generators_match_greedy(point, count):
    # Every ideal needs mu = dim(I/JI)/m generators, 1 or 2 as the paper
    # says, and the Nakayama shortcut returns the greedy search's set.
    p, walked = _walk(point)
    assert len(walked) == count
    bs = amb.bit_space(p)
    for basis in walked[1:]:
        radical = bs.rref(f(b) for f in amb._nilradical(p) for b in basis)
        mu = (len(basis) - len(radical)) // p.m
        assert mu in (1, 2)
        gens = amb.recover_generators(p, amb.IdealSet(basis))
        assert gens == greedy_generators(bs, basis)
        assert len(gens) == mu


def test_generators_where_not_local(p1322, fd1322, ctxs1322):
    # At n = 3 the ring is not local and Nakayama's count does not apply;
    # the greedy reference still finds at most two generators.
    bs = amb.bit_space(p1322)
    rng = random.Random(79)
    codes = list(itertools.islice(en.enumerate_codes(p1322, fd1322, ctxs1322), 3000))
    for code in rng.sample(codes, 12):
        basis = amb.code_bit_basis(p1322, fd1322, code, ctxs1322).basis
        gens = greedy_generators(bs, basis)
        assert len(gens) <= 2
        assert bs.closure(gens) == basis


def _closure_spaces():
    """(1,1,2,2); (2,1,2,2) at delta = 2, alpha = 3; (3,1,2,2); and the
    gamma^(-1)-twisted space of (1,1,2,3), where gamma^(-1) = 1 + u^2 + u^4."""
    spaces = [amb.bit_space(Params(*point)) for point in
              [(1, 1, 2, 2, 1, 1), (2, 1, 2, 2, 2, 3), (3, 1, 2, 2, 1, 1)]]
    p = Params(1, 1, 2, 3, 1, 1)
    inv = sum(1 << (2 * i * p.m) for i in range(p.lam))
    return spaces + [amb.BitSpace(p.field, p.u_exp, p.length, inv)]


@pytest.mark.parametrize("index", range(4), ids=["1-1-2-2", "2-1-2-2-2-3", "3-1-2-2", "twisted"])
def test_closure_matches_matrix_reference(index):
    # Closure on whole-int ring operations against closure through the
    # operators' matrices; seeds of one to three words, random words times
    # a random power of u or words of two bits, so that ideals of every
    # size come up.
    bs = _closure_spaces()[index]
    rng = random.Random(71 + index)

    def word():
        if rng.random() < 0.5:
            return sum(1 << rng.randrange(bs.dim) for _ in range(2))
        v = rng.getrandbits(bs.dim)
        for _ in range(rng.randrange(bs.w)):
            v = bs.mul_u(v)
        return v

    for _ in range(40):
        seeds = [word() for _ in range(rng.randint(1, 3))]
        want = matrix_closure(bs, seeds)
        assert bs.closure(seeds) == want
        assert bs.is_invariant(want)
        # Seeds added to a closed basis.
        assert bs.closure(seeds[1:], matrix_closure(bs, seeds[:1])) == want


@pytest.mark.parametrize("index", range(6), ids=["1-1-2-2", "2-1-2-2-2-3", "3-1-2-2", "twisted",
                                                 "census-2-2", "census-3-3"])
def test_ops_commute(index):
    # closure closes under one op at a time, which is sound because the
    # ring operations commute; so do the untwisted spaces of the census.
    spaces = _closure_spaces() + [amb.BitSpace(GF2m(2), 2, 2), amb.BitSpace(GF2m(3), 3, 2)]
    bs = spaces[index]
    rng = random.Random(83 + index)
    assert len(bs.ops) == (bs.m > 1) + 1 + (index < 4)
    for _ in range(100):
        v = rng.getrandbits(bs.dim)
        for a, b in itertools.combinations(bs.ops, 2):
            assert a(b(v)) == b(a(v))


@pytest.mark.parametrize("m, reduction", [(2, None), (3, None), (4, None), (8, None),
                                          (16, None), (8, 0x11B)])
def test_mul_y_matches_table_field(m, reduction):
    F = GF2m(m, reduction)
    field = TableField(m, F.reduction)
    rng = random.Random(89 + m)
    for w, N in [(1, 1), (4, 2), (3, 5)]:
        bs = amb.BitSpace(F, w, N)
        ones = sum(1 << i for i in range(0, bs.dim, m))
        for v in [0, (1 << bs.dim) - 1, ones << m - 1] + [rng.getrandbits(bs.dim)
                                                         for _ in range(50)]:
            assert bs.mul_y(v) == table_scale(field, bs, v, 2) == bs.scale(v, 2)


def _rewritten(basis, rng):
    """Bases of the span of an RREF basis that are not RREF: its rows
    shuffled, one row xored into another, a row repeated, and a zero row
    added."""
    rows = list(basis)
    rng.shuffle(rows)
    mixed = list(basis)
    i, j = rng.sample(range(len(basis)), 2)
    mixed[i] ^= mixed[j]
    return [tuple(rows), tuple(mixed), basis + (rng.choice(basis),), (0,) + basis]


@pytest.mark.parametrize("point", [(1, 1, 2, 2, 1, 1), (2, 1, 2, 2, 2, 3)])
def test_invariance_and_dual_on_bases_not_rref(point):
    # is_invariant uses an RREF basis as it is and eliminates any other
    # first; both must give the verdict and the dual of the RREF basis.
    p = Params(*point)
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    bs = amb.bit_space(p)
    rng = random.Random(97 + p.m)
    codes = list(itertools.islice(en.enumerate_codes(p, fd, ctxs), 400))
    spans = [amb.code_bit_basis(p, fd, c, ctxs).basis for c in rng.sample(codes, 25)]
    spans += [bs.rref(rng.getrandbits(bs.dim) for _ in range(rng.randint(2, 8)))
              for _ in range(25)]
    verdicts = []
    for basis in [b for b in spans if len(b) > 1]:
        verdicts.append(bs.is_invariant(basis))
        dual = amb.dual_bit_basis(p, basis) if verdicts[-1] else None
        for other in _rewritten(basis, rng):
            assert bs.rref(other) == basis
            assert bs.is_invariant(other) == verdicts[-1]
            if dual is not None:
                assert amb.dual_bit_basis(p, other) == dual
            else:
                with pytest.raises(ValueError):
                    amb.dual_bit_basis(p, other)
    assert any(verdicts) and not all(verdicts)


def test_is_invariant_matches_closure(p1122, oracle_135):
    # is_invariant (every image reduces to 0) agrees with the closure
    # test it replaced, on every ideal and on spans that are not ideals.
    bs = amb.bit_space(p1122)
    rng = random.Random(73)
    spans = [i.basis for i in oracle_135]
    spans += [bs.rref(rng.getrandbits(bs.dim) for _ in range(rng.randint(1, 8)))
              for _ in range(200)]
    spans += [bs.rref(b + (1 << rng.randrange(bs.dim),)) for b in rng.sample(spans[:135], 50)]
    verdicts = [bs.is_invariant(b) for b in spans]
    assert verdicts == [matrix_closure(bs, b) == b for b in spans]
    assert all(verdicts[:135]) and not all(verdicts[135:])


# ----------------------------------------------------------------------
# Dual codes
# ----------------------------------------------------------------------

def test_dual_of_zero_is_full(p1122, fd1122):
    zero = {0}
    dual = amb.dual_code(p1122, zero)
    assert len(dual) == 1 << 16


def test_dual_size_law(p1122, fd1122, ctx1122):
    rng = random.Random(59)
    descs = list(en.enumerate_ideals(p1122, ctx1122, 1))
    for d in rng.sample(descs, 10):
        code = amb.materialize_code(p1122, fd1122, en.CodeDescriptor((d,)))
        dual = amb.dual_code(p1122, code)
        assert len(code) * len(dual) == 1 << 16
        w = next(iter(dual))
        assert all(
            inner_product(p1122, w, c) == 0 for c in code
        )


def test_u_squared_ideal_is_self_dual(p1122, fd1122):
    code = amb.materialize_code(
        p1122, fd1122, en.CodeDescriptor((en.IdealDescriptor(1, 3, 4),))
    )
    assert amb.dual_code(p1122, code) == code


def test_exactly_11_self_dual(p1122, oracle_135):
    count = sum(
        1 for i in oracle_135 if amb.dual_bit_basis(p1122, i.basis) == i.basis
    )
    assert count == 11


@pytest.mark.parametrize(
    "m,alpha", [(2, a) for a in range(1, 4)] + [(3, a) for a in range(1, 8)]
)
def test_self_dual_list_verified(m, alpha):
    from constacodes.factorizer import build_factor_data

    p = Params(m, 1, 2, 2, 1, alpha)
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    codes = en.list_self_dual_length4(p)
    assert len(codes) == 1 + (1 << m) + 2 * (1 << (2 * m))
    for code in codes:
        basis = amb.code_bit_basis(p, fd, code, ctxs).basis
        assert amb.dual_bit_basis(p, basis) == basis


# ----------------------------------------------------------------------
# Submodule census
# ----------------------------------------------------------------------

def test_census_small():
    subs = amb.brute_force_submodules(GF2m(1), 1)
    assert len(subs) == 5  # {0}, three lines, the plane
    assert len(amb.brute_force_submodules(GF2m(1), 2)) == 15
    assert len(amb.brute_force_submodules(GF2m(2), 2)) == 33


def test_census_cap(monkeypatch):
    monkeypatch.setattr(amb, "CENSUS_CAP", 1 << 10)
    with pytest.raises(ValueError):
        amb.brute_force_submodules(GF2m(2), 4)
