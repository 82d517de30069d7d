import collections
import itertools
import random

import pytest

from constacodes.gf2m import GF2m
from constacodes import ambient as amb
from constacodes import chainring as cr
from constacodes import enumerator as en
from constacodes import polyring as pr
from constacodes.factorizer import build_factor_data
from constacodes.lifttable import LiftTable
from constacodes.params import Params

from reference import (adic_compose, canonical_module_form as reference_form, materialize_submodule,
                       module_contains, unit_inverse_by_xgcd, valuation_by_division)

F2 = GF2m(1)
F4 = GF2m(2)

# every lane width, m = 16 without log tables, and a reduction other
# than the default; the form and inverse tests run at each of them
FORM_FIELDS = [GF2m(m) for m in (1, 2, 3, 8, 16)] + [GF2m(8, 0x11B)]


def plain8():
    return cr.ChainCtx(F2, (1, 1), 8)


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
    # the packed inverse refuses a non-unit too, at every precision
    ctx = cr.ChainCtx(F2, (1, 1, 0, 1), 4)
    for t in range(1, 5):
        with pytest.raises(ZeroDivisionError, match=r"element is not a unit \(digit 0 vanishes\)"):
            cr._unit_inverse(ctx, pr.pack(F2, ctx.f), t)


def _irreducible(F, d, rng):
    while True:
        f = tuple(rng.randrange(F.order) for _ in range(d)) + (1,)
        if pr.is_irreducible(F, f):
            return f


def _form_contexts(F):
    """Plain contexts over F at deg f = 1, 2, 3 and e = 1, 2, 3, 5, 8."""
    rng = random.Random(F.reduction)
    for d in (1, 2, 3):
        f = _irreducible(F, d, rng)
        for e in (1, 2, 3, 5, 8):
            yield cr.ChainCtx(F, f, e)


@pytest.mark.parametrize("F", FORM_FIELDS, ids=repr)
def test_unit_inverse_precision(F):
    # the inverse modulo each f^t is the full inverse reduced mod f^t,
    # for w unreduced mod f^t and of degree >= d*e too, and for constants
    rng = random.Random(F.m + 1)
    for ctx in _form_contexts(F):
        pows = ctx.packed_pows
        for _ in range(3):
            w = pr.pack(F, _unit(ctx, rng))
            full = pr.pack(F, cr.c_inv(ctx, pr.unpack(F, w)))
            assert full == unit_inverse_by_xgcd(ctx, w)
            for t in range(1, ctx.e + 1):
                x = cr._unit_inverse(ctx, w, t)
                assert pr.k_mod(F, pr.k_mul(F, x, w), pows[t]) == 1
                assert x == pr.k_mod(F, full, pows[t])
                r = pr.pack(F, rand_elem(ctx, rng)) or 1
                for high in (pows[t].rows[0], pows[ctx.e].rows[0]):
                    assert cr._unit_inverse(ctx, w ^ pr.k_mul(F, high, r), t) == x
        for c in {1, F.order - 1, rng.randrange(1, F.order)}:
            for t in range(1, ctx.e + 1):
                assert cr._unit_inverse(ctx, pr.pack(F, (c,)), t) == pr.pack(F, (F.inv(c),))
        for non_unit in (ctx.f, (), cr.c_mul(ctx, ctx.f, _unit(ctx, rng))):
            for t in range(1, ctx.e + 1):
                with pytest.raises(ZeroDivisionError, match="element is not a unit"):
                    cr._unit_inverse(ctx, pr.pack(F, non_unit), t)


def test_adic_expansion_examples():
    ctx = plain8()
    assert cr.adic_digits(ctx, ()) == ((),) * 8
    d = cr.adic_digits(ctx, ctx.f_pows[3])
    assert d[3] == (1,) and all(x == () for i, x in enumerate(d) if i != 3)


@pytest.mark.parametrize("field,f,e,seed", [(F2, (1, 1), 8, 5), (F2, (1, 1, 1), 6, 6), (F4, (2, 1), 5, 7)])
def test_adic_roundtrip_random(field, f, e, seed):
    ctx = cr.ChainCtx(field, f, e)
    rng = random.Random(seed)
    for _ in range(1000):
        a = rand_elem(ctx, rng)
        digits = cr.adic_digits(ctx, a)
        assert all(pr.deg(x) < ctx.d for x in digits)
        assert adic_compose(ctx, digits) == a


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
    for ctx in (plain8(), cr.ChainCtx(F2, (1, 1, 1), 5),
                cr.ChainCtx(F2, (1, 1, 0, 1), 4), cr.ChainCtx(F4, (2, 1), 7)):
        for t in range(ctx.e + 1):
            for _ in range(6):
                a = cr.c_mul(ctx, ctx.f_pows[t], _unit(ctx, rng))
                assert cr.pi_degree(ctx, a) == valuation_by_division(ctx, a) == t
        for _ in range(30):
            a = rand_elem(ctx, rng)
            assert cr.pi_degree(ctx, a) == valuation_by_division(ctx, a)


# ----------------------------------------------------------------------
# The square root of u^2 and the u-extension
# ----------------------------------------------------------------------

def test_unit_is_alpha_root_when_single_factor():
    # n = 1: f = x + 1 is the core polynomial, so v = alpha_root * f^(2^(k-1))
    params = Params(1, 1, 2, 2, 1, 1)
    fd = build_factor_data(params)
    ctx = cr.make_chain_ctx(params, fd.entries[0].f)
    assert ctx.u_root == ctx.f_pows[2] == (1, 0, 1)
    assert ctx.u_squared == pr.p_pow(F2, (1, 1), 4)


def test_unit_for_n3_factor():
    params = Params(1, 3, 2, 2, 1, 1)
    fd = build_factor_data(params)
    ent = next(e for e in fd.entries if e.degree == 1)  # f = x + 1
    ctx = cr.make_chain_ctx(params, ent.f)
    # v = x^6 + 1 = w * f^2 with w = cofactor^2 = (x^2+x+1)^2 = x^4+x^2+1
    assert ctx.u_root == (1, 0, 0, 0, 0, 0, 1)
    w = (1, 0, 1, 0, 1)
    assert cr.c_mul(ctx, w, ctx.f_pows[2]) == ctx.u_root
    lhs = cr.c_mul(ctx, cr.c_mul(ctx, w, w), ctx.f_pows[4])
    rhs = cr.c_reduce(ctx, pr.p_pow(F2, (1, 0, 0, 1), 4))
    assert lhs == rhs == ctx.u_squared
    # u^(2*lam) = 0 in K + uK
    assert pr.p_mod(F2, pr.p_pow(F2, ctx.u_squared, params.lam), ctx.f_pows[ctx.e]) == pr.P_ZERO


# The certificates of v at n = 7 (factors x + 1, x^3 + x + 1 and
# x^3 + x^2 + 1): a context built at a polynomial that divides the core
# polynomial once, and at no other, reads valuation 2^(k-1).  x^2 + x + 1
# divides x^3 + 1, not x^7 + 1, so v is a unit; (x + 1)^2 = x^2 + 1 is a
# square, and v has half the valuation.  A corrupted u^2 fails the
# congruence v^2 == u^2 however v is right.
U_ROOT_CERTIFICATES = [
    pytest.param(2, (1, 1, 1), None, "is no simple factor .*valuation 0", id="non-factor"),
    pytest.param(3, (1, 1, 1), None, "is no simple factor .*valuation 0", id="non-factor-k3"),
    pytest.param(2, (1, 0, 1), None, "is no simple factor .*valuation 1", id="square"),
    pytest.param(3, (1, 0, 1), None, "is no simple factor .*valuation 2", id="square-k3"),
    pytest.param(2, (1, 1, 0, 1), lambda ctx, u2: pr.p_add(F2, u2, pr.P_ONE),
                 "u\\^2 congruence failed", id="u_squared+1"),
    pytest.param(3, (1, 1, 0, 1), lambda ctx, u2: cr.c_mul(ctx, u2, (0, 1)),
                 "u\\^2 congruence failed", id="x*u_squared"),
]


@pytest.mark.parametrize("k, f, corrupt, message", U_ROOT_CERTIFICATES)
def test_u_root_certificates_reject(k, f, corrupt, message):
    params = Params(1, 7, k, 2, 1, 1)
    ctx = cr.make_chain_ctx(params, f)
    if corrupt:
        ctx.u_squared = corrupt(ctx, ctx.u_squared)  # builds no root
    assert "u_root" not in vars(ctx)
    with pytest.raises(ArithmeticError, match=message):
        ctx.u_root


def test_plain_context_has_no_u_extension():
    ctx = cr.ChainCtx(F2, (1, 1), 4)
    for read in (lambda: ctx.u_squared, lambda: ctx.u_root,
                 lambda: cr.satisfies_u_closure(ctx, [((1,), ())])):
        with pytest.raises(ValueError, match="context carries no u-extension"):
            read()


def test_code_stream_builds_no_unit():
    params = Params(2, 7, 2, 2, 3, 2)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    codes = list(itertools.islice(en.enumerate_codes(params, fd, ctxs, start=12345), 500))
    assert len(codes) == 500
    assert all("u_root" not in vars(ctx) for ctx in ctxs)


def test_lifting_generators_builds_the_unit():
    # Family 1 at s = 0 has gap e > 2^k, so its generator holds v.
    params = Params(1, 3, 2, 2, 1, 1)
    fd = build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    desc = en.IdealDescriptor(1, 1, 0)
    LiftTable(params, fd, 0, desc, ctxs[0])
    assert "u_root" in vars(ctxs[0]) and "u_root" not in vars(ctxs[1])
    ctxs = en.chain_contexts(params, fd)
    amb.code_bit_basis(params, fd, en.CodeDescriptor((desc, desc._replace(factor=2))), ctxs)
    assert all("u_root" in vars(ctx) for ctx in ctxs)


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
    (F4, (1, 1, 0, 1), 3),      # d=3, q=64, across the q^2 carry
    (GF2m(16), (3, 1), 3),      # d=1, q=2^16, 32-bit lanes
])
def test_iter_h_matches_digit_sum(field, f, ell):
    ctx = cr.ChainCtx(field, f, 4)
    assert list(cr.iter_h(ctx, 0)) == [pr.P_ZERO]
    assert list(cr.iter_h(ctx, 0, 1)) == []
    q, size = ctx.q, ctx.q ** ell
    if size > 1 << 12:
        # Too many residues to list: windows across the run boundaries
        # at q and q*(q-1), the q^2 carry and the last residue; where q
        # is small, also one window of 3q + 5 from an odd start, across
        # all three, that a drifting xor walk would leave.
        windows = [(start, 4) for start in (q - 2, q * (q - 1) - 2, q * q - 2, size - 2)]
        if 3 * q + 5 <= 1 << 12:
            windows.append((q * q - 2 * q - 1, 3 * q + 5))
        for start, n in windows:
            want = [digit_sum(ctx, c, ell) for c in range(start, min(start + n, size))]
            assert list(itertools.islice(cr.iter_h(ctx, ell, start), n)) == want, start
        return
    full = [digit_sum(ctx, c, ell) for c in range(size)]
    assert list(cr.iter_h(ctx, ell)) == full
    for start in sorted({1, q - 1, q, q + 1, size // 2, size - 1, size, size + 5}):
        assert list(cr.iter_h(ctx, ell, start)) == full[start:], start


def test_iter_h_cost(monkeypatch):
    # A walk xors one row per residue: no tuple arithmetic, and its rows
    # are the residues 2^j - 1 for j <= m*d*l, each built once, by a few
    # packed products.  A start past the end builds nothing.
    ctx = cr.ChainCtx(F4, (1, 1, 0, 1), 4)
    calls = collections.Counter()
    for name in ("p_mul", "p_add", "k_mul"):
        def counted(*args, name=name, fn=getattr(pr, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(pr, name, counted)
    built, residue = [], cr._residue
    monkeypatch.setattr(cr, "_residue", lambda c, n: built.append(n) or residue(c, n))
    size = ctx.q ** 2
    for start in (size, 10 ** 30):
        assert list(cr.iter_h(ctx, 2, start)) == []
    assert not calls and not built
    assert len(list(cr.iter_h(ctx, 2))) == size == 4096
    assert calls["p_mul"] == calls["p_add"] == 0
    assert calls["k_mul"] <= 2 * 2 * 3 * 2
    assert built == [0] + [(1 << j) - 1 for j in range(1, 2 * 3 * 2 + 1)]


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
    ctx = cr.ChainCtx(F2, (1, 1, 1), 8)
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


def _messy_rows(ctx, rng):
    """0-4 rows: zero rows, first coordinates at two valuations (so
    pivots tie) that are f^s itself or f^s times a unit, second
    coordinates of every valuation, and entries left unreduced by a
    multiple of f^e."""
    F, e, pows = ctx.field, ctx.e, ctx.f_pows
    vals = rng.sample(range(e + 1), 2)
    rows = []
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.15:
            rows.append(((), ()))
            continue
        a0 = cr.c_mul(ctx, pows[rng.choice(vals)], (1,) if rng.random() < 0.4 else _unit(ctx, rng))
        if rng.random() < 0.5:
            a1 = cr.c_mul(ctx, pows[rng.randrange(e + 1)], _unit(ctx, rng))
        else:
            a1 = rand_elem(ctx, rng)
        a0, a1 = (pr.p_add(F, x, pr.p_mul(F, pows[e], rand_elem(ctx, rng)))
                  if rng.random() < 0.25 else x for x in (a0, a1))
        rows.append((a0, a1))
    return rows


def _form_case(ctx, rows, form):
    """Labels for the path a form took: t0 = e, t1 = 0, or a pivot with
    unit 1 or another unit, and a tie in the pivot's valuation."""
    t0, t1, _ = form
    if t0 == ctx.e:
        return {"t0 = e"}
    if t1 == 0:
        return {"t1 = 0"}
    rows = [r for r in rows if r[0] or r[1]]
    degs = [cr.pi_degree(ctx, r0) for r0, _ in rows]
    pivot = rows[degs.index(t0)][0]
    return {"w = 1" if pivot == ctx.f_pows[t0] else "w != 1"} | ({"tie"} if degs.count(t0) > 1 else set())


@pytest.mark.parametrize("F", FORM_FIELDS, ids=repr)
def test_canonical_form_matches_pivot_and_invert_reference(F):
    rng = random.Random(F.m)
    seen = set()
    for ctx in _form_contexts(F):
        for _ in range(30):
            rows = _messy_rows(ctx, rng)
            form = cr.canonical_module_form(ctx, rows)
            assert form == reference_form(ctx, rows), rows
            seen |= _form_case(ctx, rows, form)
    assert seen == {"t0 = e", "t1 = 0", "w = 1", "w != 1", "tie"}


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
    for ctx in (cr.ChainCtx(F2, (1, 1), 6), cr.ChainCtx(F4, (2, 1), 3)):
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
    for ctx in (plain8(), cr.ChainCtx(F2, (1, 1, 1), 3),
                cr.ChainCtx(F4, (2, 1), 3)):
        for _ in range(40):
            rows = _random_shape_module(ctx, rng)
            form = cr.canonical_module_form(ctx, rows)
            made = materialize_submodule(ctx, rows, cap=1 << 17)
            assert cr.module_size(ctx, form) == len(made)
            for v in rng.sample(sorted(made), min(10, len(made))):
                assert module_contains(ctx, form, v)
            for _ in range(10):
                v = (rand_elem(ctx, rng), rand_elem(ctx, rng))
                assert module_contains(ctx, form, v) == (v in made)


def test_size_law_from_row_degrees():
    # for the echelon shapes the row pi-degrees determine the size
    ctx = cr.ChainCtx(F2, (1, 1), 6)
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


def _u_closure_by_two_forms(ctx, gens, form):
    """The u-closure test as first written: the span is u-stable iff
    adding the u-multiples (u^2*a1, a0) of the generators leaves the
    canonical form, computed by form, unchanged."""
    gens = list(gens)
    u_images = [(cr.c_mul(ctx, ctx.u_squared, g[1]), g[0]) for g in gens]
    return form(ctx, gens + u_images) == form(ctx, gens)


def _closure_cases(ctx, ideal_rows, rng):
    """Each ideal's rows followed by a twin with one second coordinate
    moved by a multiple of f^i, i < e, then as many random row sets."""
    cases = []
    for rows in ideal_rows:
        cases.append(rows)
        i = rng.randrange(len(rows))
        twin = list(rows)
        twin[i] = (twin[i][0], pr.p_add(ctx.field, twin[i][1], cr.c_mul(
            ctx, ctx.f_pows[rng.randrange(ctx.e)], rand_elem(ctx, rng))))
        cases.append(twin)
    for _ in ideal_rows:
        cases.append([(rand_elem(ctx, rng), rand_elem(ctx, rng))
                      for _ in range(rng.randrange(1, 4))])
    return cases


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
    cases = _closure_cases(ctx, [en.descriptor_module_rows(p, ctx, d) for d in rng.sample(descs, 60)], rng)
    verdicts = [cr.satisfies_u_closure(ctx, rows) for rows in cases]
    assert verdicts == [_u_closure_by_two_forms(ctx, rows, cr.canonical_module_form) for rows in cases]
    assert all(verdicts[0:120:2])
    assert 20 <= verdicts.count(False) <= 160


@pytest.mark.parametrize("point", [(2, 7, 2, 2, 2, 3), (2, 5, 2, 3, 2, 1)], ids=str)
def test_u_closure_matches_reference_form_closure(point):
    # the pivot-row closure against the two-form definition on the
    # pivot-and-invert reference form, at every factor of two GF(4)
    # points, on sampled ideals, their twins and random row sets
    p = Params(*point)
    rng = random.Random(sum(point))
    verdicts = []
    for j, ctx in enumerate(en.chain_contexts(p, build_factor_data(p)), start=1):
        total = en.count_ideals(ctx.q, p.k, p.lam)
        descs = [next(en.enumerate_ideals(p, ctx, j, rng.randrange(total))) for _ in range(20)]
        cases = _closure_cases(ctx, [en.descriptor_module_rows(p, ctx, d) for d in descs], rng)
        got = [cr.satisfies_u_closure(ctx, rows) for rows in cases]
        assert got == [_u_closure_by_two_forms(ctx, rows, reference_form) for rows in cases]
        assert all(got[0:40:2])
        verdicts += got
    assert verdicts.count(False) >= 20


@pytest.mark.parametrize("F", FORM_FIELDS, ids=repr)
def test_contains_against_scaled_pivot_row(F):
    # membership against the pivot row (w*f^t0, g1) gives the verdict
    # of the canonical triple (w = 1), and scaling (w, g1) by a unit
    # keeps it, for members of the span and random pairs alike
    rng = random.Random(F.m + 2)
    verdicts = set()
    for ctx in _form_contexts(F):
        pows = ctx.packed_pows
        for _ in range(10):
            rows = _messy_rows(ctx, rng)
            t0, t1, w, g1 = cr._pivot_form(ctx, [(pr.pack(F, a0), pr.pack(F, a1)) for a0, a1 in rows])
            form = reference_form(ctx, rows)
            assert form[:2] == (t0, t1)
            pivots = [(w, g1)]
            for _ in range(2):
                c = pr.pack(F, _unit(ctx, rng))
                pivots.append(tuple(pr.k_mod(F, pr.k_mul(F, c, x), pows[ctx.e]) for x in (w, g1)))
            for _ in range(6):
                v = (rand_elem(ctx, rng), rand_elem(ctx, rng))
                if rows and rng.random() < 0.5:  # a K-combination of the rows
                    v = ((), ())
                    for a0, a1 in rows:
                        c = rand_elem(ctx, rng)
                        v = (pr.p_add(F, v[0], cr.c_mul(ctx, c, a0)), pr.p_add(F, v[1], cr.c_mul(ctx, c, a1)))
                expected = module_contains(ctx, form, v)
                for pw, pg in pivots:
                    assert cr._contains(ctx, t0, t1, pw, pg, pr.pack(F, v[0]), pr.pack(F, v[1])) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_membership_check_builds_one_form(monkeypatch, p1122, ctx1122):
    # one pivot form per check, and not one unit inverse in all of them
    calls, inverses = [], []
    real_form, real_inverse = cr._pivot_form, cr._unit_inverse

    def counting_form(ctx, rows):
        calls.append(1)
        return real_form(ctx, rows)

    def counting_inverse(ctx, w, t):
        inverses.append(1)
        return real_inverse(ctx, w, t)

    monkeypatch.setattr(cr, "_pivot_form", counting_form)
    monkeypatch.setattr(cr, "_unit_inverse", counting_inverse)
    for d in list(en.enumerate_ideals(p1122, ctx1122, 1))[::10]:
        calls.clear()
        assert en.ideal_membership_check(p1122, ctx1122, d)
        assert len(calls) == 1
    assert not inverses
    # the counter does count: the canonical triple still inverts w
    cr.canonical_module_form(ctx1122, [(cr.c_mul(ctx1122, ctx1122.f, (1, 1, 1)), (1,))])
    assert inverses
