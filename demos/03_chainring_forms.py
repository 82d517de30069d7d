"""Chain ring arithmetic and canonical forms for rank-2 submodules.

K = GF(2^m)[x]/<f^e> is a chain ring: ideals form the chain
<f^0> > <f^1> > ... > <f^e> = 0.  Each submodule of K^2 is fixed by
the triple (t0, t1, a): it is spanned by (f^t0, a) and (0, f^t1), with
a reduced mod f^t1.  The triple is the canonical form that certifies
two generator sets span the same module without materializing anything.

Run:  PYTHONPATH=src python demos/03_chainring_forms.py
"""

from constacodes.gf2m import GF2m
from constacodes import chainring as cr
from constacodes import polyring as pr

F2 = GF2m(1)
ctx = cr.ChainCtx(F2, (1, 1), 8)   # K = GF(2)[x]/<(x+1)^8>

# Digit expansions: every element is sum b_i * f^i with digits below deg f.
a = (0, 1, 1, 0, 1)   # x + x^2 + x^4
print("element  :", a)
print("digits   :", cr.adic_digits(ctx, a))
print("pi-degree:", cr.pi_degree(ctx, a))

# Units are exactly the elements with nonzero digit 0.
one_plus_f = pr.p_add(F2, (1,), ctx.f)
inv = cr.c_inv(ctx, one_plus_f)
print("\n(1+f)^(-1) =", inv, "  (the geometric series 1+f+...+f^7)")
print("check      :", cr.c_mul(ctx, inv, one_plus_f))

# Canonical forms: different presentations, same module, same triple
# (t0, t1, a) = (2, 5, (1, 0, 1)).
g1 = [(ctx.f_pows[2], (1, 0, 1)), ((), ctx.f_pows[5])]
unit = (1, 1, 0, 1)
g2 = [(cr.c_mul(ctx, unit, g1[0][0]), cr.c_mul(ctx, unit, g1[0][1])), g1[1], g1[0]]
f1 = cr.canonical_module_form(ctx, g1)
f2 = cr.canonical_module_form(ctx, g2)
print("\ncanonical form:", f1)
print("same for a unit-scaled, reordered, redundant presentation:", f1 == f2)
print("module size:", cr.module_size(ctx, f1))

# A genuinely different module gets a different form.
g3 = [(ctx.f_pows[3], (1, 0, 1)), ((), ctx.f_pows[5])]
print("different pivot -> different form:", cr.canonical_module_form(ctx, g3) != f1)
