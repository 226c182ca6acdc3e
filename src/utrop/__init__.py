"""Complexes of (symmetric) phylogenetic trees, their tree-metric cone fans,
and exact certification of tropical membership for u-equation ideals.

All arithmetic in the certified paths is exact (integers and
``fractions.Fraction``); no floating point is used anywhere.
"""

__version__ = "0.1.0"

from .errors import (
    InvalidArgumentError,
    NotAxiallySymmetricError,
    GroebnerBudgetError,
    InternalConsistencyError,
)

__all__ = [
    "InvalidArgumentError",
    "NotAxiallySymmetricError",
    "GroebnerBudgetError",
    "InternalConsistencyError",
]
