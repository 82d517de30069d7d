"""Ambient word arithmetic, the structural lift, and brute-force oracles.

Two isomorphic pictures of the same ring are maintained:

  * the "plain" side A + uA, where A = GF(2^m)[x]/<M>,
    M = (x^n + d0)^(2^k*lam) = (x^N + delta)^lam, and
    u^2 = alpha^(-1) * (x^n + d0)^(2^k) = alpha^(-1) * (x^N + delta),
    squaring being additive; elements are pairs of reduced polynomials
    (a0, a1) meaning a0 + u*a1;

  * the "word" side R[x]/<x^N - g>, N = 2^k * n, g = delta + alpha*u^2,
    over R = GF(2^m)[u]/<u^(2*lam)>.  A word is one int: field bit b of
    u-digit t of coefficient i is bit (i * 2*lam + t) * m + b, the
    layout oracle prints in hex.  BitSpace holds the ring operations,
    each on whole ints.  Ideals of this ring are exactly the codes being
    enumerated.

psi_lift / psi_inverse realize the structure map between the sides; it
is linear by construction and its multiplicativity is property-tested,
not assumed.  It is the ring map x -> x, u -> u from GF(2^m)[x], which
sends x^N to gamma and M = (x^N + delta)^lam to (alpha*u^2)^lam = 0, so
lift_digits, the one lift, takes packed parts of any degree, reduced mod
M or not, and lifts each by Horner's rule in gamma, a chunk of N lanes
at a time, into u-digit accumulators held in one int.  Those are
GF(2)-linear in the parts, so a caller may lift a sum as the xor of its
lifted terms.  flat_digits lays the accumulators out as flat u-digits,
and psi_lift places those in the word.  psi_inverse runs the other way
by Horner's rule in u^2, a binomial of degree N.

By the CRT split a code is a sum of one ideal per factor, so its
generators are its components' words eps_j * g, which
component_generators builds packed and unreduced for one factor and
descriptor at a time: the lift needs no reduction mod M, so the
package never reduces them.

For oracle work a word is a GF(2) vector of D = m * 2*lam * N bits.
An ideal is then an xor-closed set stable under three ring operations:
multiply-by-x (the constacyclic shift), multiply-by-u, and (for m > 1)
multiply by the field generator y, each a few int operations on the
whole word.  They commute, so a closure closes under one at a time:
under y, then u, then x, each pass taking every row found so far.  An
invariance test takes an RREF basis as it is and eliminates any other
first.  Duals of ideals come from the GF(2) trace form, kept as a
Gram matrix.  brute_force_ideals walks up the ideal lattice from 0,
from each ideal I to the closures of I + v for v outside I that u and
x^n + delta_root map into I: the paper's identity u^2 = alpha^(-1) *
(x^n + delta_root)^(2^k) makes the two generate the nilradical J.  It
never consults the descriptor enumeration, which makes it an
independent oracle; brute_force_submodules walks K^2 the same way.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, NamedTuple

from . import polyring as pr
from .chainring import ChainCtx
from .enumerator import (
    CodeDescriptor,
    IdealDescriptor,
    chain_contexts,
    code_size,
    descriptor_generators,
)
from .factorizer import FactorData
from .gf2m import GF2m
from .params import Params
from .polyring import Poly

AmbientElem = tuple[Poly, Poly]

# The oracle paths refuse, before building anything, above these: the
# GF(2) dimension of the word space, the number of codewords, and the
# number of vectors of the submodule census.
DEFAULT_ORACLE_DIM_CAP = 32
DEFAULT_MAT_CAP = 1 << 24
CENSUS_CAP = 1 << 14


# ----------------------------------------------------------------------
# The structure map between the two sides
# ----------------------------------------------------------------------

def _scale(F: GF2m, v: int, c: int, ones: int) -> int:
    """Every digit of v times the field element c, each digit in a slot
    of at least m bits whose bit 0 is set in ones.  Bit b of each digit,
    moved to bit 0, times y^b * c fits in the slot, so the int products
    never carry between slots.  y^b * c is c doubled b times, reduced
    whenever bit m is set."""
    if c == 1:
        return v
    out = 0
    for b in range(F.m):
        out ^= (v >> b & ones) * c
        c <<= 1
        if c & F.order:
            c ^= F.reduction
    return out


def lift_digits(params: Params, parts: tuple[int, int]) -> int:
    """psi(a0 + u*a1) from the packed a0 and a1, as its u-digit
    accumulators in one int: digit t of coefficient i in lane t*N + i.

    x^N lifts to gamma = delta + alpha*u^2, so a0 + u*a1, whose chunks
    of N lanes are c_l = a0_l + u*a1_l, lifts to sum c_l * gamma^l, by
    Horner's rule from the top chunk down: the accumulators are scaled
    by delta, xored with themselves two digits up scaled by alpha, cut
    at u^(2*lam) = 0, and xored with the next chunk, a1's part one digit
    up.  Parts of any degree lift, reduced mod M or not, since
    psi(M) = 0.

    Every step is an xor, a shift, a cut or a scaling by a constant, so
    the accumulators are GF(2)-linear in the parts: the lift of a xor b
    is the xor of the lifts.  Each digit of a word is one field element,
    so equal words have equal accumulators, however their parts were
    reduced.
    """
    F, delta, alpha = params.field, params.delta, params.alpha
    span = params.length * F.lane
    mask, top = (1 << span) - 1, (1 << params.u_exp * span) - 1
    ones = top // ((1 << F.lane) - 1)
    a0, a1 = parts
    acc = 0
    for shift in reversed(range(0, max(a0.bit_length(), a1.bit_length()), span)):
        acc = _scale(F, acc, delta, ones) ^ _scale(F, acc << 2 * span, alpha, ones)
        acc = acc & top ^ a0 >> shift & mask ^ (a1 >> shift & mask) << span
    return acc


def flat_digits(params: Params, acc: int) -> list[int]:
    """The flat u-digits of lift_digits' accumulators: coefficient i,
    digit t at index i * 2*lam + t."""
    N, w = params.length, params.u_exp
    lanes = pr.unpack(params.field, acc)
    lanes += (0,) * (w * N - len(lanes))  # unpack drops the top zero lanes
    flat = [0] * (w * N)
    for t in range(w):
        flat[t::w] = lanes[t * N:t * N + N]
    return flat


def _word(params: Params, parts: tuple[int, int]) -> int:
    """The word of packed parts: flat u-digit k of their lift at bit k*m."""
    m = params.field.m
    word = 0
    for digit in reversed(flat_digits(params, lift_digits(params, parts))):
        word = word << m | digit
    return word


def psi_lift(params: Params, amb: AmbientElem) -> int:
    """Map a0 + u*a1 to its word."""
    return _word(params, tuple(pr.pack(params.field, a) for a in amb))


def psi_inverse(params: Params, word: int) -> AmbientElem:
    """Inverse of psi_lift by Horner's rule.  On the plain side u^2 is
    U = alpha^(-1) * (x^N + delta), so a word whose u-digit t of every
    coefficient forms the polynomial D_t is a0 + u*a1 with
    a0 = sum_j D_(2j) * U^j and a1 = sum_j D_(2j+1) * U^j.  Each D_t has
    degree below N = deg U, so a partial sum over j < lam has degree
    below lam*N = deg M and needs no reduction.  A word outside
    0 .. 2^dim - 1, dim = m * 2*lam * N, raises ValueError."""
    F = params.field
    N, m, w = params.length, F.m, params.u_exp
    if not 0 <= word < 1 << m * w * N:
        raise ValueError(f"{word} is not a word of {m * w * N} bits")
    U = pr.pack(F, params.u_squared_poly)
    mask = (1 << m) - 1
    parts = [0, 0]
    for t in reversed(range(w)):
        digits = pr.pack(F, [word >> (i * w + t) * m & mask for i in range(N)])
        parts[t & 1] = pr.k_mul(F, parts[t & 1], U) ^ digits
    return pr.unpack(F, parts[0]), pr.unpack(F, parts[1])


# ----------------------------------------------------------------------
# GF(2)-flattened word space and echelon bases
# ----------------------------------------------------------------------

class Echelon:
    """A reduced row echelon basis, built from one if given: rows keyed by
    the index of their lead bit, and piv, the mask of the leads.  No row
    has a bit at another row's lead, so v is reduced by one xor per set
    bit of v & piv."""

    def __init__(self, basis: tuple[int, ...] = ()) -> None:
        self.rows = {b.bit_length() - 1: b for b in basis if b}
        self.piv = sum(1 << lead for lead in self.rows)

    def reduce(self, v: int) -> int:
        rows = self.rows
        x = v & self.piv
        while x:
            lead = x.bit_length() - 1
            v ^= rows[lead]
            x ^= 1 << lead
        return v

    def insert(self, v: int) -> int:
        """Add v; returns the new row, or 0 if v is dependent."""
        v = self.reduce(v)
        if v:
            lead = v.bit_length() - 1
            bit = 1 << lead
            rows = self.rows
            for l2, row in rows.items():
                if row & bit:
                    rows[l2] = row ^ v
            rows[lead] = v
            self.piv |= bit
        return v

    def basis(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows.values(), reverse=True))


class BitSpace:
    """Words of N coefficients, each w digits over F, as ints: bit
    (i*w + t)*m + b holds field bit b of digit t of coefficient i.  A
    word is also a vector of the GF(2) space of dimension m * w * N.

    The ring operations act on whole ints.  The twist, a w-digit int,
    is x^N; without one there is no multiply-by-x.  A subspace is an
    ideal when it is stable under ops: multiply-by-x if there is a
    twist, multiply-by-u and, for m > 1, multiply-by-y, y = 2 the field
    generator.  form is the Gram matrix of the trace form."""

    def __init__(self, F: GF2m, w: int, N: int, twist: int | None = None) -> None:
        m = self.m = F.m
        self.F, self.w, self.N = F, w, N
        self.dim = m * w * N
        # 1 in bit 0 of every digit; in bit 0 of every coefficient; and
        # in every bit of every digit but the top one of its coefficient.
        self._ones = ((1 << self.dim) - 1) // ((1 << m) - 1)
        rep = ((1 << self.dim) - 1) // ((1 << m * w) - 1)
        self._low = rep * ((1 << m * w - m) - 1)
        # Per nonzero digit d of the twist, at u^t: the shift and the mask
        # of multiply-by-u^t, and d.
        self._twist = [(t * m, rep * ((1 << m * (w - t)) - 1), d) for t in range(w)
                       if (d := (twist or 0) >> t * m & ((1 << m) - 1))]
        self.ops = [self.mul_x] * (twist is not None) + [self.mul_u] + [self.mul_y] * (m > 1)
        # B(x, y) = Tr(top u-digit of <x, y>): coefficient i pairs only
        # with itself, u-digit t only with w-1-t, and field bit a with
        # field bit b through Tr(y^a * y^b).  Bit p of y is read at bit
        # dim-1-p of form*x.
        tr = [sum(F.trace(F.mul(1 << a, 1 << b)) << (m - 1 - b) for b in range(m))
              for a in range(m)]
        self.form = [
            tr[a] << ((N - 1 - i) * w + t) * m
            for i in range(N) for t in range(w) for a in range(m)
        ]

    # -- the ring operations ------------------------------------------

    def scale(self, v: int, c: int) -> int:
        """Every digit of v times the field element c."""
        return _scale(self.F, v, c, self._ones)

    def mul_y(self, v: int) -> int:
        """y * v: each digit moves up one bit, and a digit whose top bit
        leaves it takes reduction - y^m in its place."""
        top = v >> self.m - 1 & self._ones
        return (v ^ top << self.m - 1) << 1 ^ top * (self.F.reduction ^ self.F.order)

    def mul_u(self, v: int) -> int:
        """u * v: the digits of each coefficient move up one, and its top
        digit drops out (u^w = 0)."""
        return (v & self._low) << self.m

    def mul_x(self, v: int, i: int = 1) -> int:
        """x^i * v for 0 <= i <= N: the coefficients move up i places,
        and the i of them that pass x^N come back times the twist."""
        cut = (self.N - i) * self.m * self.w
        hi = v >> cut
        v = (v & ((1 << cut) - 1)) << i * self.m * self.w
        for shift, keep, d in self._twist if hi else ():
            v ^= self.scale((hi & keep) << shift, d)
        return v

    def linearize(self, fn) -> list[int]:
        """The columns, as bit vectors, of a GF(2)-linear map on words."""
        return [fn(1 << b) for b in range(self.dim)]

    def apply(self, op: list[int], v: int) -> int:
        res = 0
        while v:
            low = v & -v
            res ^= op[low.bit_length() - 1]
            v ^= low
        return res

    # -- reduced echelon bases ----------------------------------------

    def rref(self, vectors: Iterable[int]) -> tuple[int, ...]:
        ech = Echelon()
        for v in vectors:
            ech.insert(v)
        return ech.basis()

    def closure(self, seeds: Iterable[int], basis: tuple[int, ...] = ()) -> tuple[int, ...]:
        """RREF basis of the smallest ideal holding seeds and basis, the
        RREF basis of an ideal.  The ops commute, so closing a T-stable
        space under T' keeps it T-stable (T T'^j v = T'^j T v): the seeds
        are closed under one op at a time, last to first, each pass
        pushing its op through every row added so far, those of basis
        excepted.  The RREF basis of a space is unique."""
        ech = Echelon(basis)
        new = [v for v in map(ech.insert, seeds) if v]
        for op in reversed(self.ops):
            for v in new:  # grows as it is walked
                r = ech.insert(op(v))
                if r:
                    new.append(r)
        return ech.basis()

    def is_invariant(self, basis: tuple[int, ...]) -> bool:
        """Whether the span of basis is an ideal: every image of every
        row under ops reduces to 0 against it.  An RREF basis (distinct
        leads, no row with a bit at another's lead) is used as it is;
        any other is eliminated first."""
        ech = Echelon(basis)
        if len(ech.rows) < len(basis) or any(row & ech.piv != 1 << lead
                                             for lead, row in ech.rows.items()):
            ech = Echelon(self.rref(basis))
        return not any(ech.reduce(op(b)) for b in basis for op in self.ops)

    def colon(self, basis: tuple[int, ...], maps: list[list[int]]) -> list[int]:
        """Basis of the v that each matrix in maps sends into the span of
        basis (RREF).  One elimination of the rows (M_1 e_i || ... || M_r e_i
        || e_i), images reduced against basis, leaves the rows whose lead
        is in the e_i slot with no image part: their span is the answer."""
        dim = self.dim
        ideal, ech = Echelon(basis), Echelon()
        for i in range(dim):
            v = 1 << i
            for j, op in enumerate(maps, 1):
                v |= ideal.reduce(op[i]) << j * dim
            ech.insert(v)
        return [row for row in ech.rows.values() if row >> dim == 0]

    def lattice(self, rad: list[list[int]]) -> list[tuple[int, ...]]:
        """RREF bases of all stable subspaces, walked up from 0: from each I
        to the closure of I + v for every v outside I that rad maps into I.

        rad holds matrices of multiplication by nilpotent ring elements.
        Every stable J above I then holds a v outside I that rad maps into
        I, so the walk is complete; it is small when rad generates the
        whole nilradical."""
        found = {(): None}
        todo = [()]
        while todo:
            basis = todo.pop()
            ech = Echelon(basis)
            fresh = [r for r in map(ech.insert, self.colon(basis, rad)) if r]
            for v in self.span(tuple(fresh)):
                if v:
                    grown = self.closure((v,), basis)
                    if grown not in found:
                        found[grown] = None
                        todo.append(grown)
        return list(found)

    @staticmethod
    def span(basis: tuple[int, ...]) -> Iterator[int]:
        """All 2^rank vectors, by Gray-code walk."""
        yield 0
        v = 0
        for i in range(1, 1 << len(basis)):
            v ^= basis[(i & -i).bit_length() - 1]
            yield v


# Keyed by the Params instance, so a space lives and dies with it.
_SPACES: weakref.WeakKeyDictionary[Params, BitSpace] = weakref.WeakKeyDictionary()


def bit_space(params: Params) -> BitSpace:
    """The word space of params, built on first use."""
    bs = _SPACES.get(params)
    if bs is None:
        # gamma = delta + alpha*u^2
        bs = _SPACES[params] = BitSpace(params.field, params.u_exp, params.length,
                                        params.delta | params.alpha << 2 * params.m)
    return bs


class IdealSet(NamedTuple):
    """An ideal of the word ring, identified by its RREF basis."""

    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << self.dim


# ----------------------------------------------------------------------
# Enumerated codes, materialized
# ----------------------------------------------------------------------

def component_generators(
    params: Params,
    factor_data: FactorData,
    j: int,
    desc: IdealDescriptor,
    ctx: ChainCtx,
) -> list[tuple[int, int]]:
    """eps_j * g for each generator g of desc, an ideal of factor j
    (0-based), packed and not reduced mod M: what the code's component j
    adds to its generators, ready for lift_digits."""
    F = params.field
    eps = pr.pack(F, factor_data.idempotents[j])
    return [
        tuple(pr.k_mul(F, eps, pr.pack(F, part)) for part in g)
        for g in descriptor_generators(params, ctx, desc)
    ]


def code_ambient_generators(
    params: Params,
    factor_data: FactorData,
    code: CodeDescriptor,
    ctxs: list[ChainCtx] | None = None,
) -> list[tuple[int, int]]:
    """Idempotent-scaled generators of a code on the plain side, packed
    and not reduced mod M, as lift_digits takes them."""
    if ctxs is None:
        ctxs = chain_contexts(params, factor_data)
    return [g for j, (ctx, desc) in enumerate(zip(ctxs, code.components, strict=True))
            for g in component_generators(params, factor_data, j, desc, ctx)]


def code_bit_basis(
    params: Params,
    factor_data: FactorData,
    code: CodeDescriptor,
    ctxs: list[ChainCtx] | None = None,
) -> IdealSet:
    """RREF basis of the code in the flattened word space."""
    bs = bit_space(params)
    gens = code_ambient_generators(params, factor_data, code, ctxs)
    return IdealSet(bs.closure([_word(params, g) for g in gens]))


def materialize_code(
    params: Params,
    factor_data: FactorData,
    code: CodeDescriptor,
    ctxs: list[ChainCtx] | None = None,
) -> set[int]:
    """The full codeword set; refuses (never truncates) above
    DEFAULT_MAT_CAP codewords."""
    predicted = code_size(params, factor_data, code)
    if predicted > DEFAULT_MAT_CAP:
        raise ValueError(
            f"materialization of {predicted} codewords exceeds the cap of {DEFAULT_MAT_CAP}"
        )
    ideal = code_bit_basis(params, factor_data, code, ctxs)
    if ideal.size != predicted:
        raise ArithmeticError(
            f"materialized size 2^{ideal.dim} != predicted {predicted}"
        )
    return set(BitSpace.span(ideal.basis))


# ----------------------------------------------------------------------
# Brute-force ideal oracle
# ----------------------------------------------------------------------

def _nilradical(params: Params) -> list:
    """Multiplication by u and by c = x^n + delta_root, as maps on words.

    Both are nilpotent: u^(2*lam) = 0 and c^(2^k) = alpha*u^2, since
    x^N = delta + alpha*u^2 and squaring is additive.  They generate the
    nilradical, since the quotient by them, GF(2^m)[x]/<x^n + delta_root>,
    is reduced for odd n.
    """
    bs = bit_space(params)
    return [bs.mul_u, lambda v: bs.mul_x(v, params.n) ^ bs.scale(v, params.delta_root)]


def brute_force_ideals(params: Params) -> list[IdealSet]:
    """Every ideal of the word ring, found without the enumeration:
    BitSpace.lattice walks with the generators of the nilradical."""
    dim = params.m * params.u_exp * params.length
    if dim > DEFAULT_ORACLE_DIM_CAP:
        raise ValueError(f"oracle dimension {dim} exceeds the cap of {DEFAULT_ORACLE_DIM_CAP}")
    bs = bit_space(params)
    lattice = bs.lattice([bs.linearize(f) for f in _nilradical(params)])
    return [IdealSet(b) for b in sorted(lattice, key=lambda b: (len(b), b))]


def recover_generators(params: Params, ideal: IdealSet) -> list[int]:
    """At most two generators of an ideal of the word ring; n must be 1,
    the only n within the oracle's dimension cap.

    There the ring is local with maximal ideal J = <u, x + delta_root>
    and residue field GF(2^m), so by Nakayama's lemma (Atiyah-Macdonald,
    Prop. 2.8) a set generates I iff its images span I/JI, of dimension
    mu over GF(2^m).  mu > 2 raises ArithmeticError.  Rows in JI are
    passed over; with mu = 1 the first row outside JI generates I (I = 0
    has mu = 0 and none), and with mu = 2 the first generator is the row
    of largest closure (first among equals) and the second is the first
    row, in that order, outside JI + GF(2^m)*best.
    """
    bs = bit_space(params)
    # JI = uI + cI, spanned by the rows' images.
    radical = Echelon(bs.rref(f(b) for f in _nilradical(params) for b in ideal.basis))
    mu = (ideal.dim - len(radical.rows)) // params.m
    if mu > 2:
        raise ArithmeticError(f"an ideal of dimension {ideal.dim} needs {mu} > 2 generators")
    rows = [v for v in ideal.basis if radical.reduce(v)]
    if mu < 2:
        return rows[:1]
    order = sorted(rows, key=lambda v: -len(bs.closure((v,))))
    best = order[0]
    for b in range(params.m):
        radical.insert(bs.scale(best, 1 << b))
    return [best, next(w for w in order if radical.reduce(w))]


# ----------------------------------------------------------------------
# Dual codes via the trace form
# ----------------------------------------------------------------------

def dual_bit_basis(params: Params, code_basis: tuple[int, ...]) -> tuple[int, ...]:
    """RREF basis of the dual of an ideal under the R-valued inner product.

    B(x, y) = Tr(top u-digit of <x, y>) is a generating character of R
    (it is nonzero on the minimal ideal u^(2*lam-1)R), so for an ideal C,
    x is orthogonal to all of C iff B(x, c) = 0 for every c in C (Wood,
    Amer. J. Math. 121, 1999).  The dual is the GF(2) kernel of the rows
    form*c over the basis of C.  Raises ValueError if the span is not an
    ideal, where the two duals differ.

    form*c holds its bits reversed, so each row leads at its lowest bit in
    word order, and the kernel comes out in RREF: each free column on top.
    """
    bs = bit_space(params)
    if not bs.is_invariant(code_basis):
        raise ValueError("dual_bit_basis: the span is not an ideal")
    pivots = Echelon(bs.rref(bs.apply(bs.form, c) for c in code_basis))
    top = bs.dim - 1
    kernel = {col: 1 << (top - col) for col in range(bs.dim) if not pivots.piv >> col & 1}
    for lead, row in pivots.rows.items():
        free = row & ~pivots.piv
        while free:
            col = free.bit_length() - 1
            kernel[col] |= 1 << (top - lead)
            free ^= 1 << col
    return tuple(sorted(kernel.values(), reverse=True))


def dual_code(params: Params, codewords: Iterable[int]) -> set[int]:
    """All words orthogonal to the given ideal, with the size law checked."""
    bs = bit_space(params)
    code_basis = bs.rref(codewords)
    dual_basis = dual_bit_basis(params, code_basis)
    if (1 << len(dual_basis)) > DEFAULT_MAT_CAP:
        raise ValueError("dual materialization exceeds the cap")
    if len(code_basis) + len(dual_basis) != bs.dim:
        raise ArithmeticError("duality size law |C|*|C_perp| = |R|^N failed")
    return set(bs.span(dual_basis))


# ----------------------------------------------------------------------
# Generic rank-2 submodule census over a small chain ring (oracle)
# ----------------------------------------------------------------------

def brute_force_submodules(field: GF2m, e: int) -> list[tuple[int, ...]]:
    """RREF bases of all submodules of K^2, K = GF(q)[p]/<p^e>, walked by
    BitSpace.lattice: as words of 2 coefficients with e digits each, p
    acts as the digit shift mul_u, and it generates the radical of K.
    Refuses above CENSUS_CAP vectors."""
    q = field.order
    if q ** (2 * e) > CENSUS_CAP:
        raise ValueError(f"submodule census over {q**(2*e)} vectors exceeds the cap")
    bs = BitSpace(field, e, 2)
    return bs.lattice([bs.linearize(bs.mul_u)])
