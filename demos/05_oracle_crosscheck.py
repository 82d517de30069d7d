"""The brute-force oracle: finding every ideal without the theory.

At m=1, n=1, k=2, lam=2 the whole ambient ring is a 16-dimensional
GF(2) space.  An ideal is an xor-closed subset stable under two linear
operators (multiply-by-x, multiply-by-u), so all ideals can be found
from scratch by a walk up the ideal lattice.  The nilradical J is
generated by u and x^n + delta_root, by the paper's identity
u^2 = alpha^(-1) * (x^n + delta_root)^(2^k).  From each ideal I found,
the walk steps to the closures of I + v for every v outside I that u
and x^n + delta_root both map into I; every larger ideal holds such a
v, so nothing is missed.  The result must coincide, code for code,
with the descriptor enumeration.

Run:  PYTHONPATH=src python demos/05_oracle_crosscheck.py
"""

from constacodes import ambient as amb
from constacodes import enumerator as en
from constacodes.factorizer import build_factor_data
from constacodes.params import Params

p = Params(m=1, n=1, k=2, lam=2, delta=1, alpha=1)
fd = build_factor_data(p)
ctx = en.chain_contexts(p, fd)[0]

ideals = amb.brute_force_ideals(p)
print(f"lattice walk found {len(ideals)} ideals")

dims = {}
for ideal in ideals:
    dims[ideal.dim] = dims.get(ideal.dim, 0) + 1
print("dimension profile:", dict(sorted(dims.items())))

enum_bases = {
    amb.code_bit_basis(p, fd, en.CodeDescriptor((d,))).basis
    for d in en.enumerate_ideals(p, ctx, 1)
}
print("enumeration materializes", len(enum_bases), "distinct codes")
print("oracle == enumeration:", enum_bases == {i.basis for i in ideals})

# Every oracle ideal is generated by at most two elements.
worst = max(len(amb.recover_generators(p, i)) for i in ideals)
print("max generators needed:", worst)
