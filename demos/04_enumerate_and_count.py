"""Enumerating and counting the codes.

Every code of length 2^k*n over GF(2^m)[u]/<u^(2*lam)> with shift unit
delta + alpha*u^2 is a product of per-factor ideals drawn from six
families; counts come out of two closed formulas that must agree, and
the code stream can start at any index.  A count needs only the factor
degrees, and cyclotomic cosets give those without factoring.

Run:  PYTHONPATH=src python demos/04_enumerate_and_count.py
"""

import itertools
from collections import Counter

from constacodes import enumerator as en
from constacodes.factorizer import build_factor_data, factor_degrees
from constacodes.params import Params

# The fully checkable case: length 4 over GF(2)[u]/<u^4>.
p = Params(m=1, n=1, k=2, lam=2, delta=1, alpha=1)
fd = build_factor_data(p)
ctx = en.chain_contexts(p, fd)[0]

descs = list(en.enumerate_ideals(p, ctx, 1))
print("ideals at m=1, length 4:", len(descs))
print("per family:", dict(sorted(Counter(d.family for d in descs).items())))
print("count formula:", en.count_ideals(2, 2, 2))

sizes = Counter(en.ideal_size(p, 1, d) for d in descs)
print("codeword-count spectrum (size: how many codes):")
for size in sorted(sizes):
    print(f"  {size:>6}: {sizes[size]}")

# Two factors multiply: 135 * 789 codes of length 12.
p3 = Params(m=1, n=3, k=2, lam=2, delta=1, alpha=1)
fd3 = build_factor_data(p3)
print("\nlength 12 over GF(2)[u]/<u^4>:", en.count_codes(p3, fd3), "codes")

first = list(itertools.islice(en.enumerate_codes(p3, fd3), 3))
for code in first:
    print("  size", en.code_size(p3, fd3, code),
          [(c.family, c.s, c.t) for c in code.components])

# Streams seek: a page from deep in the (m, n) = (2, 7) stream costs
# one step per block, not one per code before it.  This page crosses
# the point where the last factor starts over and the one before it
# steps forward.
p7 = Params(m=2, n=7, k=2, lam=2, delta=1, alpha=1)
fd7 = build_factor_data(p7)
offset = 18125645
print("\nlength 28 over GF(4)[u]/<u^4>:", en.count_codes(p7, fd7), "codes")
degrees = [ent.degree for ent in fd7.entries]
print("factor degrees:", degrees,
      "from cosets:", factor_degrees(p7.field, p7.n, p7.delta_root))
print("ideals per factor:", en.factor_counts(p7, degrees))
print(f"from code {offset}:")
for i, code in enumerate(itertools.islice(en.enumerate_codes(p7, fd7, start=offset), 6), offset):
    print(f"  {i}:", [(c.family, c.s, c.t, c.h) for c in code.components])

# Counts grow fast but stay exact (arbitrary precision).
p_big = Params(m=2, n=3, k=3, lam=2, delta=1, alpha=1)
print("\nm=2, n=3, k=3:", en.count_codes(p_big, build_factor_data(p_big)))
