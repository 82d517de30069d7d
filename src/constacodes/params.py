"""Validated parameter bundle for one enumeration run.

Fixes the coefficient field GF(2^m), the odd word-length factor n, the
exponents k >= 2 and lam >= 2, and the two nonzero constants delta and
alpha of the shift unit gamma = delta + alpha*u^2 acting on words over
R = GF(2^m)[u]/<u^(2*lam)> of length 2^k * n.

Derived on construction:
  * delta_root, the unique 2^k-th root of delta,
  * alpha_root, the square root of alpha^(-1),
and checked: delta_root^(2^k) == delta and alpha_root^2 * alpha == 1.
"""

from __future__ import annotations

from functools import cached_property

from .gf2m import GF2m
from . import polyring as pr
from .polyring import Poly

# n above this is refused first: factor degrees take memory and time linear in n.
N_CAP = 1 << 20


class Params:
    def __init__(
        self,
        m: int,
        n: int,
        k: int,
        lam: int,
        delta: int,
        alpha: int,
        reduction: int | None = None,
    ) -> None:
        if n > N_CAP:
            raise ValueError(f"n = {n} exceeds the cap of {N_CAP}")
        field = GF2m(m, reduction)
        if n < 1 or n % 2 == 0:
            raise ValueError(f"n must be an odd positive integer, got {n}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if lam < 2:
            raise ValueError(f"lambda must be >= 2, got {lam}")
        if not 0 < delta < field.order:
            raise ValueError(f"delta must be a nonzero element of GF(2^{m}), got {delta}")
        if not 0 < alpha < field.order:
            raise ValueError(f"alpha must be a nonzero element of GF(2^{m}), got {alpha}")
        self.field = field
        self.m = m
        self.n = n
        self.k = k
        self.lam = lam
        self.delta = delta
        self.alpha = alpha
        self.delta_root = field.root_2k(delta, k)
        self.alpha_root = field.sqrt(field.inv(alpha))
        if field.mul(field.mul(self.alpha_root, self.alpha_root), alpha) != 1:
            raise ArithmeticError("alpha_root postcondition failed")

    def __repr__(self) -> str:
        return (
            f"Params(m={self.m}, n={self.n}, k={self.k}, lam={self.lam}, "
            f"delta={self.delta}, alpha={self.alpha})"
        )

    # -- derived quantities --------------------------------------------

    @property
    def length(self) -> int:
        """Word length N = 2^k * n."""
        return (1 << self.k) * self.n

    @property
    def nilpotency(self) -> int:
        """Nilpotency exponent e = 2^k * lam of the base-poly image."""
        return (1 << self.k) * self.lam

    @property
    def u_exp(self) -> int:
        """Number of u-digits of an R element, 2*lam."""
        return 2 * self.lam

    @cached_property
    def base_poly(self) -> Poly:
        """x^n + delta_root, the squarefree core polynomial."""
        return pr.normalize((self.delta_root,) + (0,) * (self.n - 1) + (1,))

    @cached_property
    def a_modulus(self) -> Poly:
        """(x^n + delta_root)^(2^k * lam) = (x^N + delta)^lam, modulus of
        the big quotient ring (squaring is additive in characteristic 2)."""
        binomial = (self.delta,) + (0,) * (self.length - 1) + (1,)
        return pr.p_pow(self.field, binomial, self.lam)

    @cached_property
    def u_squared_poly(self) -> Poly:
        """alpha^(-1) * (x^n + delta_root)^(2^k) = alpha^(-1) * (x^N + delta),
        the value of u^2."""
        c = self.field.inv(self.alpha)
        return (self.field.mul(c, self.delta),) + (0,) * (self.length - 1) + (c,)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "lambda": self.lam,
            "delta": self.delta,
            "alpha": self.alpha,
            "delta_root": self.delta_root,
            "alpha_root": self.alpha_root,
        }
