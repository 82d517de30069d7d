import itertools
import random

import pytest

from constacodes.gf2m import GF2m
from constacodes import chainring as cr
from constacodes import enumerator as en
from constacodes import polyring as pr
from constacodes.factorizer import build_factor_data
from constacodes.params import Params

from reference import adic_compose, materialize_submodule

F2 = GF2m(1)
F4 = GF2m(2)


def plain8():
    return cr.make_plain_ctx(F2, (1, 1), 8)


def rand_elem(ctx, rng):
    return pr.normalize(
        rng.randrange(ctx.field.order) for _ in range(ctx.d * ctx.e)
    )


# ----------------------------------------------------------------------
# Ring basics
# ----------------------------------------------------------------------

def test_nilpotency():
    ctx = plain8()
    assert cr.c_mul(ctx, ctx.f_pows[1], ctx.f_pows[7]) == ()
    assert cr.c_mul(ctx, ctx.f_pows[4], ctx.f_pows[4]) == ()


def test_inverse_of_one_and_geometric_series():
    ctx = plain8()
    assert cr.c_inv(ctx, (1,)) == (1,)
    one_plus_f = pr.p_add(F2, (1,), ctx.f)
    inv = cr.c_inv(ctx, one_plus_f)
    series = pr.P_ZERO
    for i in range(8):
        series = pr.p_add(F2, series, ctx.f_pows[i])
    assert inv == cr.c_reduce(ctx, series)
    assert cr.c_mul(ctx, inv, one_plus_f) == (1,)


def test_non_unit_rejected():
    ctx = plain8()
    with pytest.raises(ZeroDivisionError):
        cr.c_inv(ctx, ctx.f)
    with pytest.raises(ZeroDivisionError):
        cr.c_inv(ctx, ())


def test_adic_expansion_examples():
    ctx = plain8()
    assert cr.adic_digits(ctx, ()) == ((),) * 8
    d = cr.adic_digits(ctx, ctx.f_pows[3])
    assert d[3] == (1,) and all(x == () for i, x in enumerate(d) if i != 3)


@pytest.mark.parametrize("field,f,e,seed", [(F2, (1, 1), 8, 5), (F2, (1, 1, 1), 6, 6), (F4, (2, 1), 5, 7)])
def test_adic_roundtrip_random(field, f, e, seed):
    ctx = cr.make_plain_ctx(field, f, e)
    rng = random.Random(seed)
    for _ in range(1000):
        a = rand_elem(ctx, rng)
        digits = cr.adic_digits(ctx, a)
        assert all(pr.deg(x) < ctx.d for x in digits)
        assert adic_compose(ctx, digits) == a


def _pi_degree_by_division(ctx, a):
    """The valuation as first written: divide by f until a remainder."""
    if not a:
        return ctx.e
    t = 0
    while True:
        a, rem = pr.p_divmod(ctx.field, a, ctx.f)
        if rem:
            return t
        t += 1


def test_pi_degree():
    ctx = plain8()
    assert cr.pi_degree(ctx, ()) == 8
    assert cr.pi_degree(ctx, (1,)) == 0
    rng = random.Random(8)
    for s in range(8):
        for _ in range(20):
            w = rand_elem(ctx, rng)
            if cr.pi_degree(ctx, w) != 0:
                continue
            a = cr.c_mul(ctx, ctx.f_pows[s], w)
            assert cr.pi_degree(ctx, a) == s
    # the binary search against repeated division, at deg f = 1, 2 and
    # 3: every t in 0..e, f^(e-1) times a unit, and the zero element
    for ctx in (plain8(), cr.make_plain_ctx(F2, (1, 1, 1), 5),
                cr.make_plain_ctx(F2, (1, 1, 0, 1), 4), cr.make_plain_ctx(F4, (2, 1), 7)):
        for t in range(ctx.e + 1):
            for _ in range(6):
                a = cr.c_mul(ctx, ctx.f_pows[t], _unit(ctx, rng))
                assert cr.pi_degree(ctx, a) == _pi_degree_by_division(ctx, a) == t
        for _ in range(30):
            a = rand_elem(ctx, rng)
            assert cr.pi_degree(ctx, a) == _pi_degree_by_division(ctx, a)


# ----------------------------------------------------------------------
# The attached unit and the u-extension
# ----------------------------------------------------------------------

def test_unit_is_alpha_root_when_single_factor():
    params = Params(1, 1, 2, 2, 1, 1)
    fd = build_factor_data(params)
    ctx = cr.make_chain_ctx(params, fd.entries[0].f, fd.entries[0].cofactor)
    assert ctx.u2_unit == (1,)
    assert ctx.u_squared == pr.p_pow(F2, (1, 1), 4)


def test_unit_for_n3_factor():
    params = Params(1, 3, 2, 2, 1, 1)
    fd = build_factor_data(params)
    ent = next(e for e in fd.entries if e.degree == 1)  # f = x + 1
    ctx = cr.make_chain_ctx(params, ent.f, ent.cofactor)
    # cofactor^2 = (x^2+x+1)^2 = x^4+x^2+1
    assert ctx.u2_unit == (1, 0, 1, 0, 1)
    lhs = cr.c_mul(ctx, cr.c_mul(ctx, ctx.u2_unit, ctx.u2_unit), ctx.f_pows[4])
    rhs = cr.c_reduce(ctx, pr.p_pow(F2, (1, 0, 0, 1), 4))
    assert lhs == rhs
    # u^(2*lam) = 0 in K + uK
    assert pr.p_mod(F2, pr.p_pow(F2, ctx.u_squared, params.lam), ctx.f_pows[ctx.e]) == pr.P_ZERO


# ----------------------------------------------------------------------
# Residue iterator
# ----------------------------------------------------------------------

def digit_sum(ctx, counter, ell):
    """Residue number `counter` mod f^ell by the documented rule: the sum
    of its base-q digits r times f^i, digit r having coefficient j in
    bits m*j .. m*j+m-1 of r."""
    m, acc = ctx.field.m, pr.P_ZERO
    for i in range(ell):
        counter, r = divmod(counter, ctx.q)
        digit = pr.normalize((r >> m * j) % (1 << m) for j in range(ctx.d))
        acc = pr.p_add(ctx.field, acc, pr.p_mul(ctx.field, digit, ctx.f_pows[i]))
    return acc


@pytest.mark.parametrize("field,f,ell", [
    (F2, (1, 1), 5),            # d=1, q=2
    (F2, (1, 1, 1), 3),         # d=2, q=4
    (F4, (2, 1), 3),            # d=1, q=4
    (F4, (1, 1, 0, 1), 2),      # d=3, q=64
    (GF2m(8), (1, 1, 0, 1), 2), # d=3, q=2^24
])
def test_iter_h_matches_digit_sum(field, f, ell):
    ctx = cr.make_plain_ctx(field, f, 4)
    assert list(cr.iter_h(ctx, 0)) == [pr.P_ZERO]
    assert list(cr.iter_h(ctx, 0, 1)) == []
    q, size = ctx.q, ctx.q ** ell
    if size > 1 << 12:
        # Too many residues to list: windows across the run boundaries
        # at q and q*(q-1), and the last residue.
        for start in (q - 2, q * (q - 1) - 2, size - 2):
            want = [digit_sum(ctx, c, ell) for c in range(start, min(start + 4, size))]
            assert list(itertools.islice(cr.iter_h(ctx, ell, start), 4)) == want, start
        return
    full = [digit_sum(ctx, c, ell) for c in range(size)]
    assert list(cr.iter_h(ctx, ell)) == full
    for start in sorted({1, q - 1, q, q + 1, size // 2, size - 1, size, size + 5}):
        assert list(cr.iter_h(ctx, ell, start)) == full[start:], start


# ----------------------------------------------------------------------
# Ideal lattice of the chain ring itself
# ----------------------------------------------------------------------

def test_all_ideals_are_f_powers_d1():
    # exhaustive at |K| = 256: every principal ideal K*a equals K*f^t
    ctx = plain8()
    elems = list(cr.iter_h(ctx, ctx.e))
    power_ideals = [frozenset(cr.c_mul(ctx, c, ctx.f_pows[t]) for c in elems) for t in range(9)]
    for t in range(9):
        assert len(power_ideals[t]) == 2 ** (8 - t)
    for a in elems:
        t = cr.pi_degree(ctx, a)
        assert frozenset(cr.c_mul(ctx, c, a) for c in elems) == power_ideals[t]


def test_ideal_sizes_d2_by_rank():
    # |<f^l>| = q^(e-l) read off as GF(2)-rank of the multiplication map
    ctx = cr.make_plain_ctx(F2, (1, 1, 1), 8)
    nbits = ctx.d * ctx.e
    for l in range(9):
        rows = {}
        for i in range(nbits):
            img = cr.c_mul(ctx, (0,) * i + (1,), ctx.f_pows[l])
            v = 0
            for j, c in enumerate(img):
                v |= c << j
            for lead, row in rows.items():
                if (v >> lead) & 1:
                    v ^= row
            if v:
                rows[v.bit_length() - 1] = v
        assert len(rows) == 2 * (8 - l)


# ----------------------------------------------------------------------
# Canonical module forms
# ----------------------------------------------------------------------

def _unit(ctx, rng):
    while True:
        w = rand_elem(ctx, rng)
        if cr.pi_degree(ctx, w) == 0:
            return w


def _random_shape_module(ctx, rng):
    """Random generator rows drawn from one of the nine echelon shapes."""
    e = ctx.e
    shape = rng.randrange(9)
    f_pows = ctx.f_pows
    a = rand_elem(ctx, rng)
    if shape == 0:
        return [((1,), a)]
    if shape == 1:
        s = rng.randrange(1, e)
        return [(f_pows[s], cr.c_mul(ctx, f_pows[s], a))]
    if shape == 2:
        return [(cr.c_mul(ctx, ctx.f, a), (1,))]
    if shape == 3:
        s = rng.randrange(1, e)
        return [(cr.c_mul(ctx, f_pows[s + 1 if s + 1 <= e else e], a), f_pows[s])]
    if shape == 4:
        s = rng.randrange(e + 1)
        fs = cr.c_reduce(ctx, f_pows[s])
        return [(fs, ()), ((), fs)]
    if shape == 5:
        t = rng.randrange(1, e)
        return [((1,), cr.c_reduce(ctx, a)), ((), f_pows[t])]
    if shape == 6:
        s = rng.randrange(1, e - 1)
        t = rng.randrange(1, e - s)
        return [
            (f_pows[s], cr.c_mul(ctx, f_pows[s], a)),
            ((), cr.c_reduce(ctx, f_pows[s + t])),
        ]
    if shape == 7:
        t = rng.randrange(1, e)
        return [(cr.c_mul(ctx, ctx.f, a), (1,)), (f_pows[t], ())]
    s = rng.randrange(1, e - 1)
    t = rng.randrange(1, e - s)
    return [
        (cr.c_mul(ctx, cr.c_mul(ctx, ctx.f, a), f_pows[s]), f_pows[s]),
        (cr.c_reduce(ctx, f_pows[s + t]), ()),
    ]


def test_canonical_form_trivial_cases():
    ctx = plain8()
    assert cr.canonical_module_form(ctx, []) == (8, 8, ())
    assert cr.canonical_module_form(ctx, [((), ())]) == (8, 8, ())
    full = cr.canonical_module_form(ctx, [((1,), ()), ((), (1,))])
    assert full == (0, 0, ())
    diag = cr.canonical_module_form(ctx, [(ctx.f_pows[2], ()), ((), ctx.f_pows[2])])
    assert diag == (2, 2, ())


def test_canonical_form_invariant_under_presentation_changes():
    ctx = plain8()
    rng = random.Random(77)
    for _ in range(200):
        rows = _random_shape_module(ctx, rng)
        form = cr.canonical_module_form(ctx, rows)
        # scale each row by a unit: same span
        scaled = []
        for r0, r1 in rows:
            u = _unit(ctx, rng)
            scaled.append((cr.c_mul(ctx, u, r0), cr.c_mul(ctx, u, r1)))
        if len(rows) == 2:
            c = rand_elem(ctx, rng)
            mixed = [
                rows[0],
                (
                    pr.p_add(ctx.field, rows[1][0], cr.c_mul(ctx, c, rows[0][0])),
                    pr.p_add(ctx.field, rows[1][1], cr.c_mul(ctx, c, rows[0][1])),
                ),
            ]
            assert cr.canonical_module_form(ctx, mixed) == form
        redundant = rows + [rows[0]]
        assert cr.canonical_module_form(ctx, redundant) == form
        # per-row unit scaling also fixes the span
        assert cr.canonical_module_form(ctx, scaled) == form


def test_canonical_form_equality_matches_materialization():
    # the definitive oracle: form equality <=> element-set equality;
    # over GF(4) the units' leads need not be 1
    rng = random.Random(123)
    for ctx in (cr.make_plain_ctx(F2, (1, 1), 6), cr.make_plain_ctx(F4, (2, 1), 3)):
        mods = [_random_shape_module(ctx, rng) for _ in range(28)]
        forms = [cr.canonical_module_form(ctx, rows) for rows in mods]
        sets = [materialize_submodule(ctx, rows) for rows in mods]
        for i in range(len(mods)):
            for j in range(i):
                assert (forms[i] == forms[j]) == (sets[i] == sets[j])


def test_canonical_form_e8_sample_against_materialization():
    ctx = plain8()
    rng = random.Random(321)
    mods = [_random_shape_module(ctx, rng) for _ in range(8)]
    forms = [cr.canonical_module_form(ctx, rows) for rows in mods]
    sets = [materialize_submodule(ctx, rows, cap=1 << 17) for rows in mods]
    for i in range(len(mods)):
        assert cr.module_size(ctx, forms[i]) == len(sets[i])
        for j in range(i):
            assert (forms[i] == forms[j]) == (sets[i] == sets[j])


def test_module_contains_and_size():
    # deg f = 1 and deg f = 2 over GF(2), and deg f = 1 over GF(4),
    # where the units' leads need not be 1
    rng = random.Random(55)
    for ctx in (plain8(), cr.make_plain_ctx(F2, (1, 1, 1), 3),
                cr.make_plain_ctx(F4, (2, 1), 3)):
        for _ in range(40):
            rows = _random_shape_module(ctx, rng)
            form = cr.canonical_module_form(ctx, rows)
            made = materialize_submodule(ctx, rows, cap=1 << 17)
            assert cr.module_size(ctx, form) == len(made)
            for v in rng.sample(sorted(made), min(10, len(made))):
                assert cr.module_contains(ctx, form, v)
            for _ in range(10):
                v = (rand_elem(ctx, rng), rand_elem(ctx, rng))
                assert cr.module_contains(ctx, form, v) == (v in made)


def test_size_law_from_row_degrees():
    # for the echelon shapes the row pi-degrees determine the size
    ctx = cr.make_plain_ctx(F2, (1, 1), 6)
    rng = random.Random(99)
    for _ in range(60):
        rows = _random_shape_module(ctx, rng)
        made = materialize_submodule(ctx, rows)
        degs = [
            min(cr.pi_degree(ctx, r0), cr.pi_degree(ctx, r1)) for r0, r1 in rows
        ]
        expected = 1
        for t in degs:
            expected *= ctx.q ** (ctx.e - t)
        if len(made) != expected:
            # a redundant second row collapses the count; drop it and retry
            lead = cr.canonical_module_form(ctx, rows)
            assert len(made) == cr.module_size(ctx, lead)
        else:
            assert len(made) == expected


def test_u_closure_examples(p1122, fd1122, ctx1122):
    ctx = ctx1122
    # diagonal modules always pass
    for s in range(9):
        fs = cr.c_reduce(ctx, ctx.f_pows[s])
        assert cr.satisfies_u_closure(ctx, [(fs, ()), ((), fs)])
    # the free module generated by (1, a) never does
    rng = random.Random(11)
    for _ in range(20):
        a = rand_elem(ctx, rng)
        assert not cr.satisfies_u_closure(ctx, [((1,), a)])


def _u_closure_by_two_forms(ctx, gens):
    """The u-closure test as first written: the span is u-stable iff
    adding the u-multiples (u^2*a1, a0) of the generators leaves the
    canonical form unchanged."""
    gens = list(gens)
    u_images = [(cr.c_mul(ctx, ctx.u_squared, g[1]), g[0]) for g in gens]
    return (cr.canonical_module_form(ctx, gens + u_images)
            == cr.canonical_module_form(ctx, gens))


@pytest.mark.parametrize("n,degree", [(1, 1), (3, 2), (7, 3)])
def test_u_closure_matches_two_form_definition(n, degree):
    # ideals, their perturbed twins and random generator sets, at a
    # factor of degree 1, 2 and 3
    p = Params(1, n, 2, 2, 1, 1)
    fd = build_factor_data(p)
    j = next(i for i, ent in enumerate(fd.entries, start=1) if ent.degree == degree)
    ctx = en.chain_contexts(p, fd)[j - 1]
    rng = random.Random(1000 + n)
    descs = list(en.enumerate_ideals(p, ctx, j))
    cases = []
    for d in rng.sample(descs, 60):
        rows = en.descriptor_module_rows(p, ctx, d)
        cases.append(rows)
        i = rng.randrange(len(rows))
        twin = list(rows)
        twin[i] = (twin[i][0], pr.p_add(F2, twin[i][1], cr.c_mul(
            ctx, ctx.f_pows[rng.randrange(ctx.e)], rand_elem(ctx, rng))))
        cases.append(twin)
    for _ in range(60):
        cases.append([(rand_elem(ctx, rng), rand_elem(ctx, rng))
                      for _ in range(rng.randrange(1, 4))])
    verdicts = [cr.satisfies_u_closure(ctx, rows) for rows in cases]
    assert verdicts == [_u_closure_by_two_forms(ctx, rows) for rows in cases]
    assert all(verdicts[0:120:2])
    assert 20 <= verdicts.count(False) <= 160


def test_membership_check_builds_one_form(monkeypatch, p1122, ctx1122):
    calls = []
    real = cr.canonical_module_form

    def counting(ctx, gens):
        calls.append(1)
        return real(ctx, gens)

    monkeypatch.setattr(cr, "canonical_module_form", counting)
    for d in list(en.enumerate_ideals(p1122, ctx1122, 1))[::10]:
        calls.clear()
        assert en.ideal_membership_check(p1122, ctx1122, d)
        assert len(calls) == 1
