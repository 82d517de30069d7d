"""Factoring the core polynomial and splitting the big quotient ring.

The ring GF(2^m)[x]/<(x^n + d0)^(2^k*lam)> splits along the distinct
irreducible factors of x^n + d0 through orthogonal idempotents; every
later construction happens factor by factor.  Counting needs only the
factors; their cofactors, and from them the idempotents, are built the
first time they are read, the idempotents in closed form.
x * f_j' * C_j / d0, with C_j the cofactor of f_j, is the idempotent
mod x^n + d0; squaring it until the power of x^n + d0 reaches the
modulus lifts it.  The one certificate is
that these sum to 1 mod x^n + d0.

Run:  PYTHONPATH=src python demos/02_factor_split.py
"""

from constacodes.gf2m import GF2m
from constacodes import polyring as pr
from constacodes.factorizer import build_factor_data, factor_xn_delta
from constacodes.params import Params

print("x^3 + 1 over GF(2):", factor_xn_delta(GF2m(1), 3, 1))
print("x^3 + 1 over GF(4):", factor_xn_delta(GF2m(2), 3, 1), " (three linears)")
print("x^7 + 1 over GF(2):", [f for f, _ in factor_xn_delta(GF2m(1), 7, 1)])

# Full split data at m=1, n=3, k=2, lam=2: modulus (x^3+1)^8.
params = Params(m=1, n=3, k=2, lam=2, delta=1, alpha=1)
fd = build_factor_data(params)
F = params.field
M = params.a_modulus
for i, (ent, cof) in enumerate(zip(fd.entries, fd.cofactors), start=1):
    print(f"factor {i}: f = {ent.f}, cofactor = {cof}")

print("\nmodulus degree:", pr.deg(M))
for i, eps in enumerate(fd.idempotents, start=1):
    print(f"  idempotent e_{i} =", eps)

e1, e2 = fd.idempotents
print("\nidempotent identities (exact, mod the big modulus):")
print("  e1 + e2      =", pr.p_add(F, e1, e2))
print("  e1 * e2      =", pr.p_mod(F, pr.p_mul(F, e1, e2), M))
print("  e1^2 == e1   :", pr.p_mod(F, pr.p_mul(F, e1, e1), M) == e1)
