"""Self-dual codes of length 4 over GF(2^m)[u]/<u^4>.

With delta = 1 the shift unit 1 + alpha*u^2 is its own inverse, so a
code and its dual live in the same ambient ring and self-duality is
well posed.  There are exactly 1 + 2^m + 2*4^m self-dual codes; each is
verified here against its dual.  The dual of an ideal comes from the
trace form Tr(top u-digit of <x, y>), a generating character of R; the
tests cross-check it against the R-valued inner product.

Run:  PYTHONPATH=src python demos/06_self_dual.py
"""

from constacodes import ambient as amb
from constacodes import enumerator as en
from constacodes.factorizer import build_factor_data
from constacodes.params import Params

for m in (1, 2):
    p = Params(m=m, n=1, k=2, lam=2, delta=1, alpha=1)
    fd = build_factor_data(p)
    ctxs = en.chain_contexts(p, fd)
    codes = en.list_self_dual_length4(p)
    print(f"m={m}: {len(codes)} self-dual codes (formula {1 + 2**m + 2*4**m})")
    verified = 0
    for code in codes:
        basis = amb.code_bit_basis(p, fd, code, ctxs).basis
        if amb.dual_bit_basis(p, basis) == basis:
            verified += 1
    print(f"  dual-verified: {verified}/{len(codes)}")
    for code in codes[:4]:
        c = code.components[0]
        print(f"  family {c.family}, s={c.s}, t={c.t}, h={list(c.h)}, "
              f"size {en.code_size(p, fd, code)}")

# At m=1 the eleven codes sit inside the 135-ideal lattice; the dual of
# every materialized code obeys |C| * |C_dual| = |R|^4.
p = Params(m=1, n=1, k=2, lam=2, delta=1, alpha=1)
fd = build_factor_data(p)
code = en.list_self_dual_length4(p)[0]
words = amb.materialize_code(p, fd, code)
dual = amb.dual_code(p, words)
print("\n<u^2> at m=1: |C| =", len(words), " dual == code:", dual == words)
