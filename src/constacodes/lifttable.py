"""Lifted generator words of one descriptor block, for `enumerate
--with-generators`: the words at h = 0, plus one lifted row per bit of
h, since the lift is affine in h inside a block."""

from __future__ import annotations

import operator

from . import ambient as amb
from . import enumerator as en
from . import polyring as pr
from .chainring import ChainCtx
from .factorizer import FactorData
from .params import Params


class LiftTable:
    """The lifted generator words of one (family, s, t) block of factor j.

    In a block the generators are a + u*f^s and f^(s+t), with a = a0 +
    f^p*h, p = s + ceil(gap/2) and a0 the same for every h.  Their
    images eps_j*g are affine in h over GF(2), and so are their lifts:
    ambient.lift_digits is linear.  So the words at h are those at h = 0
    with the first one's accumulators xored with one row per set bit of
    the packed h: the lift of eps_j*f^p*y^b*x^i for bit b of coefficient
    i, built on first use.  f^p*h needs no reduction mod f^e, being of
    degree below d*(p + floor(gap/2)) <= d*e, and the rows none mod M,
    which the lift sends to 0.  Each digit of a word is one field
    element, so the accumulators, and the JSON, are those of lifting
    component_generators at h.  The words after the first are the same at
    every h, and their JSON is built once.

    A word's JSON comes straight from the packed accumulators: they are
    unpacked once, padded to 2*lam*N lanes (unpack drops the top zero
    lanes), and a lane permutation reads them in coefficient order,
    lane t*N + i for digit t of coefficient i, into a format template
    of N coefficients of 2*lam digits.
    """

    def __init__(self, params: Params, fd: FactorData, j: int, desc: en.IdealDescriptor,
                 ctx: ChainCtx) -> None:
        F, N, w = params.field, params.length, params.u_exp
        self.params, self.rows, self.lanes = params, {}, w * N
        self.word = "[%s]" % ",".join(["[%s]" % ",".join(["%d"] * w)] * N)
        self.order = operator.itemgetter(*[t * N + i for i in range(N) for t in range(w)])
        gens = amb.component_generators(params, fd, j, desc._replace(h=()), ctx)
        self.base, *self.rest = [amb.lift_digits(params, g) for g in gens]
        self.tail = "".join("," + self._text(acc) for acc in self.rest)
        p = desc.s + (en.ideal_gap(params, desc.family, desc.s, desc.t) + 1) // 2
        self.h_factor = pr.k_mul(F, pr.pack(F, fd.idempotents[j]), pr.pack(F, ctx.f_pows[p]))

    def first(self, h: pr.Poly) -> int:
        """The accumulators of the first generator's lift at h."""
        F, rows = self.params.field, self.rows
        acc = self.base
        bits = pr.pack(F, h)
        while bits:
            low = bits & -bits
            if low not in rows:
                rows[low] = amb.lift_digits(self.params, (pr.k_mul(F, self.h_factor, low), 0))
            acc ^= rows[low]
            bits ^= low
        return acc

    def _text(self, acc: int) -> str:
        """The JSON of one lifted word from its accumulators."""
        lanes = pr.unpack(self.params.field, acc)
        return self.word % self.order(lanes + (0,) * (self.lanes - len(lanes)))

    def json(self, h: pr.Poly) -> str:
        """The JSON of the block's lifted words at h."""
        return self._text(self.first(h)) + self.tail
