"""Reference implementations the tests check the package against.

Each is written plainly and apart from the package's fast paths: the
plain side's constants and ring operations on coefficient tuples, a
code's two combined generators reduced mod M, the R-valued inner
product of two words, the word ring's product, f-adic composition,
brute-force walks of the submodules of K^2 over a chain ring K, ideal closure through operator
matrices with row-by-row elimination, and the greedy generator search.
"""

import itertools

from constacodes import polyring as pr
from constacodes.ambient import bit_space, component_generators
from constacodes.chainring import c_mul, iter_h, pi_degree
from constacodes.enumerator import chain_contexts


# ----------------------------------------------------------------------
# The plain side A + uA
# ----------------------------------------------------------------------

def p_const(c):
    """The constant polynomial c."""
    return (c,) if c else ()


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


def code_generators(params, factor_data, code, ctxs=None):
    """At most two combined generators of the whole code, reduced mod M.

    Slot i is the sum over components of their i-th idempotent-scaled
    generator; components with one generator contribute zero to the
    second slot.
    """
    if ctxs is None:
        ctxs = chain_contexts(params, factor_data)
    slots = []
    for j, (ctx, desc) in enumerate(zip(ctxs, code.components)):
        for slot, g in enumerate(component_generators(params, factor_data, j, desc, ctx)):
            if slot == len(slots):
                slots.append(g)
            else:
                slots[slot] = (slots[slot][0] ^ g[0], slots[slot][1] ^ g[1])
    F = params.field
    dv = factor_data.modulus_divisor
    return [tuple(pr.unpack(F, pr.k_mod(F, x, dv)) for x in g) for g in slots]


# ----------------------------------------------------------------------
# Words
# ----------------------------------------------------------------------

def word_mul(bs, a, b):
    """a * b in the word ring of bs: digit t of coefficient i of b adds
    x^i * u^t * a times that digit."""
    out, mask = 0, (1 << bs.m) - 1
    while b:
        au = a
        for _ in range(bs.w):
            if b & mask:
                out ^= bs.scale(au, b & mask)
            b >>= bs.m
            au = bs.mul_u(au)
        if b:
            a = bs.mul_x(a)
    return out


def inner_product(params, a, b):
    """R-valued Euclidean inner product of two words, as a w-digit int
    (the reference for dual_bit_basis, which works from the trace form):
    the sum of the products of their coefficients."""
    bs = bit_space(params)
    width = bs.m * bs.w
    mask = (1 << width) - 1
    acc = 0
    for i in range(0, bs.dim, width):
        acc ^= word_mul(bs, a >> i & mask, b >> i & mask)
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
    """Every K-submodule of K^2, as (form, rows): its canonical triple
    and the rows (f^t0, a), (0, f^t1) that span it.

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
                yield (t0, t1, pr.P_ZERO), kernel
                continue
            for a in iter_h(ctx, t1):
                if a and t1 > e - t0 + pi_degree(ctx, a):
                    continue
                yield (t0, t1, a), [(ctx.f_pows[t0], a), *kernel]


# ----------------------------------------------------------------------
# Echelon bases and closures on operator matrices
# ----------------------------------------------------------------------

def apply_matrix(op, v):
    """The image of v under the matrix whose columns are op."""
    res = 0
    while v:
        low = v & -v
        res ^= op[low.bit_length() - 1]
        v ^= low
    return res


def rref_insert(rows, v):
    """Insert v into an RREF row dict keyed by lead bit, walking every row;
    returns the reduced new row (0 if dependent)."""
    for lead, row in rows.items():
        if (v >> lead) & 1:
            v ^= row
    if not v:
        return 0
    lead = v.bit_length() - 1
    for l2 in rows:
        if (rows[l2] >> lead) & 1:
            rows[l2] ^= v
    rows[lead] = v
    return v


def matrix_closure(bs, seeds):
    """RREF basis of the smallest ideal holding seeds: every new row is
    pushed through the matrices of the ring operations, column by column."""
    mats = [bs.linearize(op) for op in bs.ops]
    rows = {}
    stack = [v for v in seeds if v]
    while stack:
        v = rref_insert(rows, stack.pop())
        if v:
            stack.extend(apply_matrix(op, v) for op in mats)
    return tuple(sorted(rows.values(), reverse=True))


def greedy_generators(bs, basis):
    """A generating set of at most two elements by the greedy search alone:
    the basis row of largest closure (first in basis order among equals),
    then the first row in that order that completes a generating pair,
    then any span vector."""
    if not basis:
        return []
    closures = [(bs.closure((v,)), v) for v in basis]
    closures.sort(key=lambda cv: len(cv[0]), reverse=True)
    best_basis, best = closures[0]
    if best_basis == basis:
        return [best]
    for _, w in closures:
        if w != best and bs.closure((best, w)) == basis:
            return [best, w]
    for w in itertools.islice(bs.span(basis), 1 << 16):
        if w and bs.closure((best, w)) == basis:
            return [best, w]
    raise ArithmeticError("no two-element generating set")
