"""Exact-rational sparse polynomials, Groebner bases, u-equation ideals,
weighted initial ideals, and (signed) tropical certification.

Whether a weight lies in the (signed) tropicalization is answered on one
path: :func:`.signed.certify_weights` builds one :class:`ConeCertifier`
per symmetry orbit of the weights it is given."""

from .poly import Poly, TermOrder, grevlex, weighted_order
from .groebner import groebner_basis, NormalFormCalculator, DEFAULT_MAX_PAIRS
from .ideals import (
    Ideal,
    CompatibilitySpec,
    binary_ideal,
    ideal_a,
    ideal_c,
    pair_var_name,
)
from .initial import (
    initial_ideal,
    initial_part,
    is_monomial_free,
    sign_twist,
)
from .signed import Verdict, ConeCertifier, search_sign_patterns_c
from .crossratio import cross_ratio_point, sign_pattern_a

__all__ = [
    "Poly",
    "TermOrder",
    "grevlex",
    "weighted_order",
    "groebner_basis",
    "NormalFormCalculator",
    "DEFAULT_MAX_PAIRS",
    "Ideal",
    "CompatibilitySpec",
    "binary_ideal",
    "ideal_a",
    "ideal_c",
    "pair_var_name",
    "initial_ideal",
    "initial_part",
    "is_monomial_free",
    "sign_twist",
    "Verdict",
    "ConeCertifier",
    "search_sign_patterns_c",
    "cross_ratio_point",
    "sign_pattern_a",
]
