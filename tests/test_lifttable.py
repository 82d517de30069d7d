import json
import random

import pytest

from constacodes import ambient as amb
from constacodes import enumerator as en
from constacodes import factorizer
from constacodes import polyring as pr
from constacodes.lifttable import LiftTable
from constacodes.params import Params

# (m, n, k, lam, delta, alpha): 8-bit lanes, three factors, delta != 1;
# 16-bit lanes with lam = 3 and two factors; lam = 4 with three factors;
# k = 3; 32-bit lanes.
LIFT_TABLE_POINTS = [
    (2, 7, 2, 2, 3, 2),
    (5, 3, 2, 3, 7, 9),
    (2, 5, 2, 4, 2, 3),
    (1, 7, 3, 2, 1, 1),
    (16, 1, 2, 2, 4097, 3),
]


@pytest.mark.parametrize("point", LIFT_TABLE_POINTS)
def test_lift_table_matches_lifted_generators(point):
    # Every block of every factor, at h = 0, at the last residue and at
    # random ones, in an order that reuses the rows of earlier residues,
    # then once more at the same h, at h = 0 and back: the table's words
    # are the coefficient-major packing of lifting component_generators
    # at h, bit for bit, and its JSON is that of their flat u-digits
    # grouped by coefficient.
    params = Params(*point)
    F, w = params.field, params.u_exp
    fd = factorizer.build_factor_data(params)
    ctxs = en.chain_contexts(params, fd)
    rng = random.Random(repr(point))
    shapes = set()
    for j, ctx in enumerate(ctxs):
        for family, s, t in en.ideal_blocks(params):
            ell = en.h_space_exponent(params, family, s, t)
            size = ctx.q ** ell
            starts = [0, size - 1, rng.randrange(size), rng.randrange(size)]
            rng.shuffle(starts)
            starts += [starts[-1], 0, starts[0]]
            table = LiftTable(params, fd, j, en.IdealDescriptor(j + 1, family, s, t), ctx)
            for start in starts:
                h = next(en.iter_h(ctx, ell, start))
                desc = en.IdealDescriptor(j + 1, family, s, t, h)
                gens = amb.component_generators(params, fd, j, desc, ctx)
                flats = [amb.flat_digits(params, amb.lift_digits(params, g)) for g in gens]
                assert [table.first(h), *table.rest] == [pr.pack(F, flat) for flat in flats]
                assert table.json(h) == ",".join(
                    json.dumps([flat[i:i + w] for i in range(0, len(flat), w)], separators=(",", ":"))
                    for flat in flats)
            shapes.add((family, ell > 0, len(gens)))
    assert {shape[0] for shape in shapes} == {1, 2, 3, 4, 5, 6}
    # blocks with h-exponent 0, and blocks of two generators with h free
    assert (3, False, 1) in shapes and (4, False, 2) in shapes and (5, True, 2) in shapes
