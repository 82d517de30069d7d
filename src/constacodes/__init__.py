"""Exact enumeration of Type-2 constacyclic codes over GF(2^m)[u]/<u^(2*lam)>.

The package constructs, counts and cross-checks every ideal of the ring

    R[x] / <x^(2^k * n) - (delta + alpha*u^2)>,

R = GF(2^m)[u]/<u^(2*lam)>, for odd n and k, lam >= 2, entirely in
exact arithmetic, with brute-force oracles validating the construction
at small parameter sizes.
"""

from .gf2m import GF2m
from .params import Params
from .factorizer import FactorData, FactorEntry, build_factor_data, factor_xn_delta
from .chainring import ChainCtx, make_chain_ctx, canonical_module_form
from .enumerator import (
    CodeDescriptor,
    IdealDescriptor,
    count_codes,
    count_ideals,
    count_ideals_closed_form,
    count_ideals_sum_form,
    count_submodules_length2,
    enumerate_codes,
    enumerate_ideals,
    ideal_membership_check,
    ideal_size,
    list_self_dual_length4,
)
from .ambient import (
    IdealSet,
    brute_force_ideals,
    brute_force_submodules,
    dual_code,
    materialize_code,
    psi_inverse,
    psi_lift,
)

__all__ = [
    "GF2m",
    "Params",
    "FactorData",
    "FactorEntry",
    "build_factor_data",
    "factor_xn_delta",
    "ChainCtx",
    "make_chain_ctx",
    "canonical_module_form",
    "CodeDescriptor",
    "IdealDescriptor",
    "count_codes",
    "count_ideals",
    "count_ideals_closed_form",
    "count_ideals_sum_form",
    "count_submodules_length2",
    "enumerate_codes",
    "enumerate_ideals",
    "ideal_membership_check",
    "ideal_size",
    "list_self_dual_length4",
    "IdealSet",
    "brute_force_ideals",
    "brute_force_submodules",
    "dual_code",
    "materialize_code",
    "psi_inverse",
    "psi_lift",
]

__version__ = "0.1.0"
