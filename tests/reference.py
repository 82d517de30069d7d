"""Reference implementations the tests check the package against.

Each is written plainly and apart from the package's fast paths: the
plain side's ring operations on coefficient tuples, the R-valued inner
product of two words, f-adic composition, and brute-force walks of the
submodules of K^2 over a chain ring K.
"""

from constacodes import polyring as pr
from constacodes.ambient import bit_space
from constacodes.chainring import c_mul, iter_h, pi_degree


# ----------------------------------------------------------------------
# The plain side A + uA
# ----------------------------------------------------------------------

def amb_add(params, a, b):
    F = params.field
    return pr.p_add(F, a[0], b[0]), pr.p_add(F, a[1], b[1])


def amb_mul(params, a, b):
    """(a0 + u*a1)(b0 + u*b1) = (a0*b0 + u^2*a1*b1) + u*(a0*b1 + a1*b0) mod M."""
    F = params.field
    M = params.a_modulus
    u2 = params.u_squared_poly  # already reduced: deg u^2 < deg M
    lo = pr.p_add(
        F,
        pr.p_mod(F, pr.p_mul(F, a[0], b[0]), M),
        pr.p_mod(F, pr.p_mul(F, u2, pr.p_mul(F, a[1], b[1])), M),
    )
    hi = pr.p_add(
        F,
        pr.p_mod(F, pr.p_mul(F, a[0], b[1]), M),
        pr.p_mod(F, pr.p_mul(F, a[1], b[0]), M),
    )
    return lo, hi


# ----------------------------------------------------------------------
# Words
# ----------------------------------------------------------------------

def inner_product(params, a, b):
    """R-valued Euclidean inner product of two words, as a w-digit int
    (the reference for dual_bit_basis, which works from the trace form):
    the sum of the products of their coefficients."""
    bs = bit_space(params)
    width = bs.m * bs.w
    mask = (1 << width) - 1
    acc = 0
    for i in range(0, bs.dim, width):
        acc ^= bs.mul(a >> i & mask, b >> i & mask)
    return acc


# ----------------------------------------------------------------------
# The chain ring K = GF(2^m)[x]/<f^e>
# ----------------------------------------------------------------------

def adic_compose(ctx, digits):
    """sum digits[i] * f^i, the inverse of adic_digits."""
    acc = pr.P_ZERO
    for digit in reversed(list(digits)):
        acc = pr.p_add(ctx.field, pr.p_mul(ctx.field, acc, ctx.f), digit)
    return acc


def materialize_submodule(ctx, gens, cap=1 << 20):
    """All elements of the K-span of up to two generators.

    Brute force independent of canonical_module_form, for use as its
    correctness oracle: the span is computed as {c1*g1 + c2*g2} over
    all scalars, never through the normal form.  The multiples are
    packed ints, summed by xor and unpacked once at the end.
    """
    gens = [g for g in gens if g[0] or g[1]]
    if len(gens) > 2:
        raise ValueError("materialize_submodule handles at most two generators")
    size_k = ctx.q ** ctx.e
    work = size_k if len(gens) < 2 else size_k * size_k
    if work > cap:
        raise ValueError("submodule materialization would exceed the cap")
    if not gens:
        return frozenset({(pr.P_ZERO, pr.P_ZERO)})
    F = ctx.field
    scalars = list(iter_h(ctx, ctx.e))
    tables = [
        [(pr.pack(F, c_mul(ctx, c, g[0])), pr.pack(F, c_mul(ctx, c, g[1]))) for c in scalars]
        for g in gens
    ]
    if len(tables) == 1:
        packed = set(tables[0])
    else:
        packed = {(v0 ^ w0, v1 ^ w1) for v0, v1 in tables[0] for w0, w1 in tables[1]}
    return frozenset((pr.unpack(F, v0), pr.unpack(F, v1)) for v0, v1 in packed)


def enumerate_all_submodules(ctx):
    """Every K-submodule of K^2, one canonical form each.

    Modules correspond bijectively to triples (t0, t1, a): pivot
    exponent t0 of the first-column projection, pivot exponent t1 of
    the second-column kernel, and a second coordinate a reduced mod
    f^t1, subject to t1 <= e - t0 + pi_degree(a).  Iterating the
    triples therefore walks the full submodule lattice without any
    spanning computation.
    """
    e = ctx.e
    for t0 in range(e + 1):
        for t1 in range(e + 1):
            kernel = [(pr.P_ZERO, ctx.f_pows[t1])] if t1 < e else []
            if t0 == e:
                yield tuple(kernel)
                continue
            for a in iter_h(ctx, t1):
                if a and t1 > e - t0 + pi_degree(ctx, a):
                    continue
                yield ((ctx.f_pows[t0], a), *kernel)
