import itertools
import random
from collections import Counter

import pytest

from constacodes.gf2m import GF2m
from constacodes import ambient as amb
from constacodes import chainring as cr
from constacodes import enumerator as en
from constacodes import polyring as pr
from constacodes.ambient import brute_force_submodules
from constacodes.factorizer import build_factor_data
from constacodes.params import Params

from reference import code_generators, enumerate_all_submodules, p_const


# ----------------------------------------------------------------------
# Count formulas
# ----------------------------------------------------------------------

def test_count_135():
    assert en.count_ideals(2, 2, 2) == 135


def test_count_789():
    # the degree-2 factor at m=1 (q = 4): 256+320+144+52+17
    assert en.count_ideals(4, 2, 2) == 789


@pytest.mark.parametrize("q", [2, 4, 8, 16])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [2, 3])
def test_sum_equals_closed_form(q, k, lam):
    assert en.count_ideals_sum_form(q, k, lam) == en.count_ideals_closed_form(q, k, lam)
    # The seek's block sizes q^l add up to the same count.
    p = Params(1, 1, k, lam, 1, 1)
    blocks = sum(q ** en.h_space_exponent(p, fam, s, t) for fam, s, t in en.ideal_blocks(p))
    assert blocks == en.count_ideals_sum_form(q, k, lam)


@pytest.mark.parametrize("q", [2, 4, 8])
def test_count_polynomial_display(q):
    # at k=2, lam=2 the count is 17 + 13q + 9q^2 + 5q^3 + q^4
    assert en.count_ideals(q, 2, 2) == 17 + 13 * q + 9 * q * q + 5 * q**3 + q**4


def test_count_codes_multifactor(p1322, fd1322):
    assert en.count_codes(p1322, fd1322) == 135 * 789 == 106515


def test_count_submodules_values():
    assert en.count_submodules_length2(2, 1) == 5
    assert en.count_submodules_length2(2, 2) == 15
    assert en.count_submodules_length2(2, 3) == 37
    assert en.count_submodules_length2(4, 2) == 33


@pytest.mark.parametrize(
    "m,e", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 3), (1, 8), (4, 2)]
)
def test_count_submodules_against_census(m, e, monkeypatch):
    F = GF2m(m)
    monkeypatch.setattr(amb, "CENSUS_CAP", F.order ** (2 * e))
    subs = brute_force_submodules(F, e)
    assert len(subs) == en.count_submodules_length2(F.order, e)


# ----------------------------------------------------------------------
# Descriptor streams
# ----------------------------------------------------------------------

def test_family_subtotals_135(p1122, ctx1122):
    descs = list(en.enumerate_ideals(p1122, ctx1122, 1))
    assert len(descs) == 135
    per = Counter(d.family for d in descs)
    assert per[1] + per[2] == 45
    assert per[3] == 9
    assert per[4] + per[5] + per[6] == 81
    assert per == Counter({1: 36, 2: 9, 3: 9, 4: 7, 5: 38, 6: 36})


def test_family3_count_any_params():
    for m, n, k, lam in [(1, 1, 2, 2), (2, 1, 2, 3), (1, 1, 3, 2)]:
        p = Params(m, n, k, lam, 1, 1)
        fd = build_factor_data(p)
        ctx = en.chain_contexts(p, fd)[0]
        descs = [d for d in en.enumerate_ideals(p, ctx, 1) if d.family == 3]
        assert len(descs) == p.nilpotency + 1


def test_stream_matches_count_for_degree2_factor(p1322, fd1322, ctxs1322):
    ent = fd1322.entries[1]
    assert ent.degree == 2
    descs = list(en.enumerate_ideals(p1322, ctxs1322[1], 2))
    assert len(descs) == 789
    assert all(d.factor == 2 for d in descs)


def test_h_stream_order(p1122, ctx1122):
    hs = list(en.iter_h(ctx1122, 2))
    # digit order: 0, 1, f, 1+f (f = x+1) -> poly tuples
    assert hs == [(), (1,), (1, 1), (0, 1)]
    assert len(set(hs)) == 4


def test_h_stream_degree2_factor(p1322, ctxs1322):
    ctx = ctxs1322[1]
    hs = list(en.iter_h(ctx, 1))
    # residue field of the degree-2 factor: 4 digits, packed order
    assert hs == [(), (1,), (0, 1), (1, 1)]


def test_distinct_canonical_forms_d1(p1122, ctx1122):
    forms = set()
    for d in en.enumerate_ideals(p1122, ctx1122, 1):
        rows = en.descriptor_module_rows(p1122, ctx1122, d)
        forms.add(cr.canonical_module_form(ctx1122, rows))
    assert len(forms) == 135


def test_distinct_canonical_forms_d2(p1322, ctxs1322):
    ctx = ctxs1322[1]
    forms = set()
    for d in en.enumerate_ideals(p1322, ctx, 2):
        rows = en.descriptor_module_rows(p1322, ctx, d)
        forms.add(cr.canonical_module_form(ctx, rows))
    assert len(forms) == 789


def test_distinct_canonical_forms_m2():
    p = Params(2, 1, 2, 2, 1, 1)
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    forms = set()
    count = 0
    for d in en.enumerate_ideals(p, ctx, 1):
        count += 1
        rows = en.descriptor_module_rows(p, ctx, d)
        forms.add(cr.canonical_module_form(ctx, rows))
    assert count == en.count_ideals(4, 2, 2) == 789
    assert len(forms) == 789


def test_every_descriptor_u_closed_d1(p1122, ctx1122):
    for d in en.enumerate_ideals(p1122, ctx1122, 1):
        assert en.ideal_membership_check(p1122, ctx1122, d)


@pytest.mark.parametrize("k,lam", [(2, 3), (3, 2)])
def test_higher_nilpotency_sound_and_complete(k, lam):
    # count matches the formula, forms are pairwise distinct, and every
    # descriptor is u-closed; the family-1/2 boundary 2^k*(lam-1) only
    # differs from 2^(k-1)*lam once lam > 2, which this pins down
    p = Params(1, 1, k, lam, 1, 1)
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    forms = set()
    count = 0
    for d in en.enumerate_ideals(p, ctx, 1):
        count += 1
        rows = en.descriptor_module_rows(p, ctx, d)
        forms.add(cr.canonical_module_form(ctx, rows))
        assert en.ideal_membership_check(p, ctx, d), d
    assert count == en.count_ideals(2, k, lam) == len(forms)


@pytest.mark.parametrize("k,lam,q_count", [(2, 2, 135), (2, 3, 607)])
def test_completeness_against_submodule_lattice(k, lam, q_count):
    # walk every submodule of K^2 through its canonical triple, check
    # that canonical_module_form returns that triple for its rows, and
    # keep the u-stable ones: their number and their canonical forms
    # must agree exactly with the descriptor enumeration (independent
    # completeness check that does not rely on the count formula)
    p = Params(1, 1, k, lam, 1, 1)
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    all_modules = list(enumerate_all_submodules(ctx))
    assert len(all_modules) == en.count_submodules_length2(2, p.nilpotency)
    assert len({form for form, _ in all_modules}) == len(all_modules)
    for form, rows in all_modules:
        assert cr.canonical_module_form(ctx, rows) == form
    closed = {form for form, rows in all_modules if cr.satisfies_u_closure(ctx, rows)}
    assert len(closed) == q_count
    enumerated = {
        cr.canonical_module_form(ctx, en.descriptor_module_rows(p, ctx, d))
        for d in en.enumerate_ideals(p, ctx, 1)
    }
    assert enumerated == closed


def test_nontrivial_shift_constants_full_sweep():
    # delta = w, alpha = w^2 over GF(4): nontrivial roots delta_root and
    # alpha_root feed the per-factor unit; the whole lattice must still
    # come out distinct, u-closed and correctly counted
    p = Params(2, 1, 2, 2, 2, 3)
    assert p.field.pow(p.delta_root, 4) == p.delta
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    forms = set()
    count = 0
    for d in en.enumerate_ideals(p, ctx, 1):
        count += 1
        rows = en.descriptor_module_rows(p, ctx, d)
        forms.add(cr.canonical_module_form(ctx, rows))
        assert en.ideal_membership_check(p, ctx, d)
    assert count == en.count_ideals(4, 2, 2) == 789
    assert len(forms) == 789


def test_family_boundary_shapes_lam3():
    # at lam=3, k=2 the single-generator shapes without the unit term are
    # not stable under the u-action for s in [6, 8); with it they are
    p = Params(1, 1, 2, 3, 1, 1)
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    for s in (6, 7):
        with_unit = en.descriptor_module_rows(p, ctx, en.IdealDescriptor(1, 1, s))
        assert cr.satisfies_u_closure(ctx, with_unit)
        bare = [(pr.P_ZERO, cr.c_reduce(ctx, ctx.f_pows[s]))]
        assert not cr.satisfies_u_closure(ctx, bare)



@pytest.mark.parametrize("point,count", [((1, 3, 2, 2, 1, 1), 712), ((2, 1, 2, 2, 2, 3), 640)], ids=str)
def test_v_term_is_needed_in_families_1_and_6(point, count):
    # every family-1 and family-6 ideal passes u-closure with its
    # v-term v*f^s and fails it with the term xored out
    p = Params(*point)
    seen = 0
    for j, ctx in enumerate(en.chain_contexts(p, build_factor_data(p)), start=1):
        for d in en.enumerate_ideals(p, ctx, j):
            if d.family not in (1, 6):
                continue
            rows = en.descriptor_module_rows(p, ctx, d)
            assert cr.satisfies_u_closure(ctx, rows)
            vterm = cr.c_mul(ctx, ctx.u_root, ctx.f_pows[d.s])
            bare = [(pr.p_add(p.field, rows[0][0], vterm), rows[0][1]), *rows[1:]]
            assert not cr.satisfies_u_closure(ctx, bare), d
            seen += 1
    assert seen == count

def test_generator_count_bound(p1122, ctx1122):
    for d in en.enumerate_ideals(p1122, ctx1122, 1):
        gens = en.descriptor_generators(p1122, ctx1122, d)
        assert 1 <= len(gens) <= 2
        if d.family in (1, 2, 3):
            assert len(gens) == 1


def test_generator_examples(p1122, ctx1122):
    ctx = ctx1122
    # full ring
    g = en.descriptor_generators(p1122, ctx, en.IdealDescriptor(1, 3, 0))
    assert g == [((1,), ())]
    # <u, f>
    g = en.descriptor_generators(p1122, ctx, en.IdealDescriptor(1, 4, 0, 1))
    assert g == [((), (1,)), (ctx.f, ())]
    # family 1, s=0, h=0 at delta=alpha=1, m=1: f^2 + u (the unit is 1)
    g = en.descriptor_generators(p1122, ctx, en.IdealDescriptor(1, 1, 0, None, ()))
    assert g == [(cr.c_reduce(ctx, ctx.f_pows[2]), (1,))]


def test_sizes_match_canonical_module_size(p1322, fd1322, ctxs1322):
    ctx = ctxs1322[1]
    rng = random.Random(3)
    descs = list(en.enumerate_ideals(p1322, ctx, 2))
    for d in rng.sample(descs, 60):
        rows = en.descriptor_module_rows(p1322, ctx, d)
        form = cr.canonical_module_form(ctx, rows)
        assert cr.module_size(ctx, form) == en.ideal_size(p1322, 2, d)


def test_size_extremes(p1122):
    e = p1122.nilpotency
    full = en.IdealDescriptor(1, 3, 0)
    zero = en.IdealDescriptor(1, 3, e)
    assert en.ideal_size(p1122, 1, full) == 1 << 16
    assert en.ideal_size(p1122, 1, zero) == 1


def test_enumerate_codes_product(p1322, fd1322, ctxs1322):
    stream = en.enumerate_codes(p1322, fd1322, ctxs1322)
    first = list(itertools.islice(stream, 790))
    assert all(len(c.components) == 2 for c in first)
    # the last component varies fastest: the first 789 share component 1
    assert len({c.components[0] for c in first[:789]}) == 1
    assert len({c.components[1] for c in first[:789]}) == 789
    assert first[789].components[0] != first[0].components[0]


def test_enumerate_codes_single_factor_equals_ideals(p1122, fd1122, ctx1122):
    codes = list(en.enumerate_codes(p1122, fd1122))
    descs = list(en.enumerate_ideals(p1122, ctx1122, 1))
    assert [c.components[0] for c in codes] == descs


def test_full_stream_length_multifactor(p1322, fd1322, ctxs1322):
    n = sum(1 for _ in en.enumerate_codes(p1322, fd1322, ctxs1322))
    assert n == 106515


def test_code_sizes_divide_ring_size(p1322, fd1322):
    full = (1 << p1322.m) ** (p1322.u_exp * p1322.length)
    for code in itertools.islice(en.enumerate_codes(p1322, fd1322), 500):
        assert full % en.code_size(p1322, fd1322, code) == 0


# ----------------------------------------------------------------------
# Seeking: a stream can start at any index
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_enumerate_ideals_seek_equals_tail(m, n):
    p = Params(m, n, 2, 2, 1, 1)
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    full = list(en.enumerate_ideals(p, ctx, 1))
    for i in range(len(full) + 3):
        assert list(en.enumerate_ideals(p, ctx, 1, i)) == full[i:], i
    # The blocks the seek skips are the stream's own runs, in order.
    runs = [(fam, s, t) for (fam, s, t), _ in
            itertools.groupby(full, key=lambda d: (d.family, d.s, d.t))]
    assert runs == list(en.ideal_blocks(p))
    sizes = Counter((d.family, d.s, d.t) for d in full)
    for fam, s, t in en.ideal_blocks(p):
        assert sizes[fam, s, t] == ctx.q ** en.h_space_exponent(p, fam, s, t)


def test_enumerate_codes_seek_equals_window(p1322, fd1322, ctxs1322):
    full = list(en.enumerate_codes(p1322, fd1322, ctxs1322))
    total = len(full)
    starts = random.Random(17).sample(range(total), 30)
    starts += [0, 788, 789, 790, total - 1, total, total + 7]
    for i in starts:
        window = itertools.islice(en.enumerate_codes(p1322, fd1322, ctxs1322, i), 50)
        assert list(window) == full[i:i + 50], i
    assert list(en.enumerate_codes(p1322, fd1322, ctxs1322, total)) == []
    assert list(en.enumerate_codes(p1322, fd1322, ctxs1322, total + 7)) == []


def test_enumerate_codes_seek_is_mixed_radix():
    # Three factors of 789 ideals each: code i has ideal indices
    # (i // 789^2, i // 789 % 789, i % 789).  The windows cross points
    # where one and where two factors start over.
    p = Params(2, 3, 2, 2, 1, 1)
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    ideals = [list(en.enumerate_ideals(p, ctx, j)) for j, ctx in enumerate(ctxs, 1)]
    radix = [len(x) for x in ideals]
    assert radix == [789, 789, 789]
    total = en.count_codes(p, fd)
    for i in [0, 789 - 3, 789 * 789 - 3, 5 * 789 * 789 + 788, total - 3]:
        expected = []
        for j in range(i, min(i + 6, total)):
            idx = (j // (789 * 789), j // 789 % 789, j % 789)
            expected.append(en.CodeDescriptor(tuple(x[a] for x, a in zip(ideals, idx))))
        window = itertools.islice(en.enumerate_codes(p, fd, ctxs, i), 6)
        assert list(window) == expected, i


def test_enumerate_codes_needs_one_context_per_factor(p1322, fd1322, ctxs1322):
    # a short context list would drop the factors it misses
    yielded = []
    with pytest.raises(ValueError):
        yielded.extend(en.enumerate_codes(p1322, fd1322, ctxs1322[:1]))
    assert yielded == []


def test_negative_start_rejected(p1322, fd1322, ctxs1322):
    with pytest.raises(ValueError):
        next(en.enumerate_codes(p1322, fd1322, ctxs1322, -1))
    with pytest.raises(ValueError):
        next(en.enumerate_ideals(p1322, ctxs1322[0], 1, -1))
    with pytest.raises(ValueError):
        next(en.iter_h(ctxs1322[0], 2, -1))


def test_code_generators_bound(p1322, fd1322, ctxs1322):
    rng = random.Random(5)
    codes = list(itertools.islice(en.enumerate_codes(p1322, fd1322, ctxs1322), 2000))
    for code in rng.sample(codes, 40):
        gens = code_generators(p1322, fd1322, code, ctxs1322)
        assert 1 <= len(gens) <= 2


# ----------------------------------------------------------------------
# Self-dual list
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_selfdual_counts(m):
    p = Params(m, 1, 2, 2, 1, 1)
    codes = en.list_self_dual_length4(p)
    assert len(codes) == 1 + (1 << m) + 2 * (1 << (2 * m))
    fams = Counter(c.components[0].family for c in codes)
    assert fams[3] == 1
    assert fams[5] == (1 << m) + (1 << (2 * m))
    assert fams[6] == 1 << (2 * m)


def test_selfdual_rejects_uncovered_params():
    with pytest.raises(ValueError):
        en.list_self_dual_length4(Params(1, 3, 2, 2, 1, 1))
    with pytest.raises(ValueError):
        en.list_self_dual_length4(Params(1, 1, 3, 2, 1, 1))
    with pytest.raises(ValueError):
        en.list_self_dual_length4(Params(1, 1, 2, 3, 1, 1))
    with pytest.raises(ValueError):
        en.list_self_dual_length4(Params(2, 1, 2, 2, 2, 1))


def test_selfdual_contains_u_squared_ideal():
    for m in (1, 2):
        p = Params(m, 1, 2, 2, 1, 1)
        codes = en.list_self_dual_length4(p)
        assert codes[0].components[0] == en.IdealDescriptor(1, 3, 4, None, ())


def test_selfdual_alpha_dependence():
    # alpha = w in GF(4): the family-6 members pin digit 0 to alpha_root
    # (alpha_root != 1 here, while alpha_root^3 = 1 for every alpha in GF(4))
    p = Params(2, 1, 2, 2, 1, 2)
    codes = en.list_self_dual_length4(p)
    pinned = p.alpha_root
    fam6 = [c.components[0] for c in codes if c.components[0].family == 6]
    assert len(fam6) == 16
    fd = build_factor_data(p)
    ctx = en.chain_contexts(p, fd)[0]
    for d in fam6:
        assert cr.adic_digits(ctx, d.h)[0] == p_const(pinned)


# ----------------------------------------------------------------------
# Descriptor range validation
# ----------------------------------------------------------------------

def test_descriptor_ranges(p1122, ctx1122):
    e = p1122.nilpotency
    two_k = 1 << p1122.k
    boundary = two_k * (p1122.lam - 1)
    for d in en.enumerate_ideals(p1122, ctx1122, 1):
        if d.family == 1:
            assert 0 <= d.s <= boundary - 1
        elif d.family == 2:
            assert boundary <= d.s <= e - 1
        elif d.family == 3:
            assert 0 <= d.s <= e
        elif d.family == 4:
            assert 0 <= d.s <= e - 2 and d.t == 1
        elif d.family == 5:
            assert 2 <= d.t <= two_k and 0 <= d.s <= e - 1 - d.t
        else:
            assert two_k + 1 <= d.t <= e - 1 and 0 <= d.s <= e - 1 - d.t
        ell = en.h_space_exponent(p1122, d.family, d.s, d.t)
        assert pr.deg(d.h) < max(ell, 1) * ctx1122.d or not d.h


# ----------------------------------------------------------------------
# The one (s, t) shape against the paper's six families
# ----------------------------------------------------------------------
# References: the six-family bodies the one-shape builder replaced.

def _ref_h_space_exponent(params, family, s, t):
    half = (1 << (params.k - 1)) * params.lam
    if family in (1, 2):
        return half - (s + 1) // 2
    if family in (5, 6):
        assert t is not None
        return t // 2
    return 0


def _ref_ideal_blocks(params):
    e = params.nilpotency
    two_k = 1 << params.k
    boundary = two_k * (params.lam - 1)
    for s in range(boundary):
        yield 1, s, None
    for s in range(boundary, e):
        yield 2, s, None
    for s in range(e + 1):
        yield 3, s, None
    for s in range(e - 1):
        yield 4, s, 1
    for t in range(2, two_k + 1):
        for s in range(e - t):
            yield 5, s, t
    for t in range(two_k + 1, e):
        for s in range(e - t):
            yield 6, s, t


def _ref_ideal_size(params, d, desc):
    e = params.nilpotency
    md = params.m * d
    fam, s, t = desc.family, desc.s, desc.t
    if fam in (1, 2):
        expo = e - s
    elif fam == 3:
        expo = 2 * e - 2 * s
    elif fam == 4:
        expo = 2 * e - 2 * s - 1
    elif fam in (5, 6):
        assert t is not None
        expo = 2 * e - 2 * s - t
    else:
        raise ValueError(f"unknown family {fam}")
    return 1 << (md * expo)


def _ref_lead_entry(params, fd, ctx, desc):
    F = params.field
    half = (1 << (params.k - 1)) * params.lam
    fam, s, t, h = desc.family, desc.s, desc.t, desc.h
    acc = pr.P_ZERO
    if fam in (1, 6):  # the paper's w * f^(2^(k-1)+s), w = alpha_root * C^(2^(k-1))
        cof = fd.cofactors[desc.factor - 1]
        w = pr.p_scale(F, pr.p_powmod(F, cof, 1 << (params.k - 1), ctx.f_pows[ctx.e]),
                       params.alpha_root)
        acc = cr.c_mul(ctx, w, ctx.f_pows[(1 << (params.k - 1)) + s])
    if fam in (1, 2):
        hidx = half + (s + 1) // 2
    else:
        assert t is not None
        hidx = s + (t + 1) // 2
    if h:
        acc = pr.p_add(F, acc, cr.c_mul(ctx, ctx.f_pows[hidx], h))
    return acc


def _ref_descriptor_generators(params, fd, ctx, desc):
    fam, s, t = desc.family, desc.s, desc.t
    fs = cr.c_reduce(ctx, ctx.f_pows[s])
    if fam in (1, 2):
        return [(_ref_lead_entry(params, fd, ctx, desc), fs)]
    if fam == 3:
        return [(fs, pr.P_ZERO)]
    if fam == 4:
        return [(pr.P_ZERO, fs), (cr.c_reduce(ctx, ctx.f_pows[s + 1]), pr.P_ZERO)]
    assert t is not None
    return [
        (_ref_lead_entry(params, fd, ctx, desc), fs),
        (cr.c_reduce(ctx, ctx.f_pows[s + t]), pr.P_ZERO),
    ]


@pytest.mark.parametrize("m,n,k,lam,delta,alpha", [
    (1, 1, 2, 2, 1, 1), (2, 1, 2, 2, 2, 3), (1, 1, 3, 2, 1, 1),
    (1, 1, 2, 3, 1, 1), (1, 3, 2, 2, 1, 1), (3, 1, 2, 2, 5, 6),
])
def test_one_shape_matches_six_families(m, n, k, lam, delta, alpha):
    # Generators, module rows, sizes and h-exponents of every descriptor
    # equal the six-family references.  At t = 2^k (family 2's first s,
    # family 5's last t) a w-term would only relabel h, so this is the
    # check that pins the strict bound t > 2^k.
    p = Params(m, n, k, lam, delta, alpha)
    fd = build_factor_data(p)
    for j, (ent, ctx) in enumerate(zip(fd.entries, en.chain_contexts(p, fd)), 1):
        for d in en.enumerate_ideals(p, ctx, j):
            ref = _ref_descriptor_generators(p, fd, ctx, d)
            assert en.descriptor_generators(p, ctx, d) == ref, d
            if d.family == 3:
                ref.append((pr.P_ZERO, ref[0][0]))
            assert en.descriptor_module_rows(p, ctx, d) == ref, d
            assert en.ideal_size(p, ent.degree, d) == _ref_ideal_size(p, ent.degree, d)
            assert (en.h_space_exponent(p, d.family, d.s, d.t)
                    == _ref_h_space_exponent(p, d.family, d.s, d.t))


def test_blocks_match_six_families():
    for k in range(2, 7):
        for lam in range(2, 9):
            p = Params(1, 1, k, lam, 1, 1)
            assert list(en.ideal_blocks(p)) == list(_ref_ideal_blocks(p)), (k, lam)


@pytest.mark.parametrize("fn", ["h_space_exponent", "ideal_size", "descriptor_generators"])
@pytest.mark.parametrize("family,t", [(0, None), (7, None), (7, 2), (4, None), (5, None), (6, None)])
def test_malformed_descriptor_raises_value_error(p1122, ctx1122, fn, family, t):
    d = en.IdealDescriptor(1, family, 1, t)
    call = {
        "h_space_exponent": lambda: en.h_space_exponent(p1122, family, 1, t),
        "ideal_size": lambda: en.ideal_size(p1122, 1, d),
        "descriptor_generators": lambda: en.descriptor_generators(p1122, ctx1122, d),
    }[fn]
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("desc", [
    pytest.param(en.IdealDescriptor(1, 1, -1), id="negative-s"),
    pytest.param(en.IdealDescriptor(1, 6, 0, 99, (1,)), id="gap-past-e"),
    pytest.param(en.IdealDescriptor(1, 4, 0, 2), id="family-4-gap-2"),
    pytest.param(en.IdealDescriptor(1, 1, 0, 8), id="family-1-with-t"),
    pytest.param(en.IdealDescriptor(1, 5, 0, 2, (5,)), id="h-coefficient-past-field"),
    pytest.param(en.IdealDescriptor(1, 5, 0, 2, (1, 1)), id="h-degree-past-residue"),
])
@pytest.mark.parametrize("fn", ["ideal_size", "descriptor_generators", "ideal_membership_check"])
def test_misfit_descriptor_raises_value_error(p1322, ctxs1322, desc, fn):
    # a descriptor whose s, gap, family and t do not fit together, or
    # whose h is not a residue mod f^(gap//2), is rejected, not read
    # through a negative index or past f^e, nor reduced forever
    call = {
        "ideal_size": lambda: en.ideal_size(p1322, 1, desc),
        "descriptor_generators": lambda: en.descriptor_generators(p1322, ctxs1322[0], desc),
        "ideal_membership_check": lambda: en.ideal_membership_check(p1322, ctxs1322[0], desc),
    }[fn]
    with pytest.raises(ValueError, match="malformed descriptor"):
        call()

