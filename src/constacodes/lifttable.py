"""Lifted generator words of one descriptor block, for `enumerate
--with-generators`: the words at h = 0, plus one lifted row per bit of
h, since the lift is affine in h inside a block."""

from __future__ import annotations

import struct

from . import ambient as amb
from . import enumerator as en
from . import polyring as pr
from .chainring import ChainCtx
from .factorizer import FactorData
from .params import Params


class _CoeffTexts(dict):
    """The JSON of one coefficient's 2*lam u-digits by their bytes."""

    def __init__(self, params: Params) -> None:
        super().__init__()
        self.field, self.width = params.field, params.u_exp

    def __missing__(self, raw: bytes) -> str:
        digits = pr.unpack(self.field, int.from_bytes(raw, "little"))
        text = self[raw] = "[%s]" % ",".join(map(str, digits + (0,) * (self.width - len(digits))))
        return text


class LiftTable:
    """The lifted generator words of one (family, s, t) block of factor j.

    In a block the generators are a + u*f^s and f^(s+t), with a = a0 +
    f^p*h, p = s + ceil(gap/2) and a0 the same for every h.  Their
    images eps_j*g are affine in h over GF(2), and so are their lifts:
    ambient.lift_digits is linear.  So the words at h are those at h = 0
    with the first one xored with one row per set bit of the packed h:
    the lift of eps_j*f^p*y^b*x^i for bit b of coefficient i, built on
    first use.  f^p*h needs no reduction mod f^e, being of degree below
    d*(p + floor(gap/2)) <= d*e, and the rows none mod M, which the lift
    sends to 0.  Each digit of a word is one field element, so the words,
    and the JSON, are those of lifting component_generators at h.  The
    words after the first are the same at every h, and their JSON is
    built once.  Consecutive codes of a block differ in a few low digits
    of h, so first starts from the last h's word and xors in the rows of
    the bits that changed.

    Words are coefficient-major, lane i*2*lam + t holding digit t of
    coefficient i (flat_digits orders each lift once), so a word's JSON
    is its bytes' N groups of 2*lam lanes, each looked up in self.coeffs.
    """

    def __init__(self, params: Params, fd: FactorData, j: int, desc: en.IdealDescriptor,
                 ctx: ChainCtx) -> None:
        F = params.field
        self.params, self.rows, self.coeffs = params, {}, _CoeffTexts(params)
        self.groups = struct.Struct("%ds" % (params.u_exp * F.lane // 8) * params.length)
        gens = amb.component_generators(params, fd, j, desc._replace(h=()), ctx)
        base, *self.rest = [self._lift(g) for g in gens]
        self.last = 0, base  # the packed h of the last call and its word
        self.tail = "".join("," + self._text(word) for word in self.rest)
        p = desc.s + (en.ideal_gap(params, desc.family, desc.s, desc.t) + 1) // 2
        self.h_factor = pr.k_mul(F, pr.pack(F, fd.idempotents[j]), pr.pack(F, ctx.f_pows[p]))

    def _lift(self, parts: tuple[int, int]) -> int:
        """The coefficient-major word of packed parts."""
        params = self.params
        return pr.pack(params.field, amb.flat_digits(params, amb.lift_digits(params, parts)))

    def first(self, h: pr.Poly) -> int:
        """The word of the first generator's lift at h."""
        F, rows, (last, word) = self.params.field, self.rows, self.last
        bits = pr.pack(F, h)
        changed = bits ^ last
        while changed:
            low = changed & -changed
            if low not in rows:
                rows[low] = self._lift((pr.k_mul(F, self.h_factor, low), 0))
            word ^= rows[low]
            changed ^= low
        self.last = bits, word
        return word

    def _text(self, word: int) -> str:
        """The JSON of one lifted word."""
        groups = self.groups.unpack(word.to_bytes(self.groups.size, "little"))
        return "[%s]" % ",".join(map(self.coeffs.__getitem__, groups))

    def json(self, h: pr.Poly) -> str:
        """The JSON of the block's lifted words at h."""
        return self._text(self.first(h)) + self.tail
