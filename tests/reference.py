"""Reference implementations the tests check the package against.

Each is written plainly and apart from the package's fast paths: field
arithmetic through log/antilog tables, Rabin's irreducibility test with
its own square-and-multiply and Euclid on tuples, the plain side's
constants and ring operations on coefficient tuples, a code's two
combined generators reduced mod M, the R-valued inner product of two
words, the word ring's product, f-adic composition, the valuation by
repeated division, membership in a canonical module form, brute-force
walks of the submodules of K^2 over a chain ring K, the
pivot-and-invert canonical module form, ideal closure through operator
matrices with row-by-row elimination (multiply-by-y digit by digit
through the tables), and the greedy generator search.
"""

import itertools

from constacodes import polyring as pr
from constacodes.ambient import bit_space, component_generators
from constacodes.chainring import _contains, c_mul, iter_h
from constacodes.enumerator import chain_contexts
from constacodes.gf2m import _factor_int


# ----------------------------------------------------------------------
# The field GF(2^m) through log/antilog tables
# ----------------------------------------------------------------------

class TableField:
    """GF(2^m) modulo the packed reduction polynomial, multiplied and
    inverted by lookup in log/antilog tables of a generator of the unit
    group; the generator is searched for, since y itself need not be one."""

    def __init__(self, m, reduction):
        self.m, self.reduction, self.order = m, reduction, 1 << m
        n1 = self.order - 1
        g = next(g for g in range(1, self.order)
                 if all(self._pow_plain(g, n1 // p) != 1 for p in _factor_int(n1)))
        self.exp, self.log = [0] * (2 * n1), [0] * self.order
        v = 1
        for i in range(2 * n1):
            self.exp[i] = v
            self.log[v] = i % n1
            v = self._mul_plain(v, g)

    def _mul_plain(self, a, b):
        """Schoolbook carry-less product, reduced once at the end."""
        p = 0
        for i in range(b.bit_length()):
            if b >> i & 1:
                p ^= a << i
        for i in reversed(range(self.m, p.bit_length())):
            if p >> i & 1:
                p ^= self.reduction << (i - self.m)
        return p

    def _pow_plain(self, a, e):
        r = 1
        for _ in range(e):
            r = self._mul_plain(r, a)
        return r

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[(self.order - 1 - self.log[a]) % (self.order - 1)]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.order - 1)]

    def sqrt(self, a):
        """The b with b*b == a: half the log, modulo the odd group order."""
        if a == 0:
            return 0
        n1 = self.order - 1
        return self.exp[self.log[a] * pow(2, -1, n1) % n1] if n1 > 1 else 1


# ----------------------------------------------------------------------
# Rabin's test on coefficient tuples
# ----------------------------------------------------------------------

def _powmod(F, base, e, f):
    """base**e mod f by square-and-multiply on tuples."""
    r, base = pr.P_ONE, pr.p_mod(F, base, f)
    while e:
        if e & 1:
            r = pr.p_mod(F, pr.p_mul(F, r, base), f)
        e >>= 1
        base = pr.p_mod(F, pr.p_mul(F, base, base), f)
    return r


def _gcd(F, a, b):
    """Monic gcd of a and a nonzero b, by Euclid on tuples."""
    while b:
        a, b = b, pr.p_mod(F, a, b)
    return pr.p_scale(F, a, F.inv(a[-1]))


def is_irreducible(F, f):
    """Rabin's test: f of degree d >= 2 is irreducible iff x^(q^d) = x
    mod f and gcd(x^(q^(d/p)) - x, f) = 1 for each prime p | d."""
    d = pr.deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    if _powmod(F, pr.P_X, q**d, f) != pr.p_mod(F, pr.P_X, f):
        return False
    for p in _factor_int(d):
        h = _powmod(F, pr.P_X, q ** (d // p), f)
        if _gcd(F, pr.p_add(F, h, pr.P_X), f) != pr.P_ONE:
            return False
    return True


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


def unit_inverse_by_xgcd(ctx, w):
    """Inverse of a packed unit modulo f^e: the inverse modulo f from the
    extended gcd, lifted by x -> w*x^2 modulo f^(2k).  In characteristic
    2, if w*x = 1 + h with f^k dividing h, then w*(w*x^2) = (1 + h)^2 =
    1 + h^2."""
    F, pows = ctx.field, ctx.packed_pows
    _, x = pr.k_xgcd(F, pr.k_mod(F, w, pows[1]), pows[1].rows[0])
    k = 1
    while k < ctx.e:
        k = min(2 * k, ctx.e)
        x = pr.k_mod(F, pr.k_mul(F, w, pr.k_mul(F, x, x)), pows[k])
    return x


def valuation_by_division(ctx, a):
    """The largest t <= e with f^t dividing the polynomial a: divide by
    f until a remainder."""
    t = 0
    while t < ctx.e:
        a, rem = pr.p_divmod(ctx.field, a, ctx.f)
        if rem:
            break
        t += 1
    return t


def module_contains(ctx, form, v):
    """Whether the pair of polynomials v lies in the module of canonical
    form (t0, t1, a): chainring's packed test, with the pivot unit
    w = 1, on unpacked inputs."""
    F = ctx.field
    t0, t1, a = form
    return _contains(ctx, t0, t1, 1, pr.pack(F, a), pr.pack(F, v[0]), pr.pack(F, v[1]))


def canonical_module_form(ctx, gens):
    """The invariants (t0, t1, a) of the K-span of gens in K^2, the way
    the package first computed them: divide the pivot row by its unit,
    inverted modulo f^e, and clear every other row against it."""
    F, e, pows = ctx.field, ctx.e, ctx.packed_pows
    rows = [(pr.pack(F, g[0]), pr.pack(F, g[1])) for g in gens if g[0] or g[1]]
    modulus = pows[e]

    # Pivot for column 0: smallest pi-degree among first coordinates.
    degs = [valuation_by_division(ctx, pr.unpack(F, g0)) for g0, _ in rows]
    t0 = min(degs, default=e)
    second_gens = []
    lead = 0
    if t0 < e:
        g0, g1 = rows.pop(degs.index(t0))
        w = pr.k_divmod(F, g0, pows[t0])[0]  # exact, w a unit
        lead = pr.k_mod(F, pr.k_mul(F, unit_inverse_by_xgcd(ctx, w), g1), modulus)
        # f^(e-t0) * (f^t0, lead) kills the first coordinate.
        second_gens.append(pr.k_mod(F, pr.k_mul(F, pows[e - t0].rows[0], lead), modulus))
    # Clear the other rows' first coordinates (all 0 if t0 = e) by (f^t0, lead).
    for a0, a1 in rows:
        qfac = pr.k_divmod(F, a0, pows[t0])[0]  # exact by minimality of t0
        second_gens.append(a1 ^ pr.k_mod(F, pr.k_mul(F, qfac, lead), modulus))

    t1 = min((valuation_by_division(ctx, pr.unpack(F, b)) for b in second_gens), default=e)
    return t0, t1, pr.unpack(F, pr.k_mod(F, lead, pows[t1]))


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
                if a and t1 > e - t0 + valuation_by_division(ctx, a):
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


def table_scale(field, bs, v, c):
    """Every digit of the word v of bs times c, digit by digit, through
    field, a TableField of the same reduction polynomial."""
    mask = (1 << bs.m) - 1
    return sum(field.mul(v >> i & mask, c) << i for i in range(0, bs.dim, bs.m))


def matrix_closure(bs, seeds):
    """RREF basis of the smallest ideal holding seeds: every new row is
    pushed through the matrices of the ring operations, column by column.
    Multiply-by-x (if bs has it) and by u come from bs; multiply-by-y, for
    m > 1, from table_scale."""
    mats = [bs.linearize(op) for op in bs.ops if op != bs.mul_y]
    if bs.m > 1:
        field = TableField(bs.m, bs.F.reduction)
        mats.append(bs.linearize(lambda v: table_scale(field, bs, v, 2)))
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
