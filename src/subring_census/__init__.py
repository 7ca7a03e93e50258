"""Exact enumeration and verification of finite-index subrings of Z^n.

The package enumerates Hermite-normal-form matrices whose column span is a
subring of Z^n, classifies their cokernels through Smith normal form, and
checks the resulting counts against exact generating functions and against
floating-point constants with rigorous error bounds.
"""

__version__ = "0.1.0"

from .combinatorics import binomial, compositions
from .hnf import (
    Cotype,
    HnfMatrix,
    SubringMatrix,
    canonical_rpstar,
    diagonal_support_corank,
    dump_matrices,
    is_subring_matrix,
    load_matrices,
    smith_normal_form,
    snf_oracle_minor_gcds,
)
from .enumeration import (
    BudgetExceededError,
    EnumSpec,
    NodeBudget,
    PruneRuleSet,
    enumerate_irreducible,
    enumerate_subrings,
)
from .polynomials import MPoly, RatFunc, SeriesTable, expand, functional_equation_check
from .catalog import catalog

__all__ = [
    "BudgetExceededError",
    "Cotype",
    "EnumSpec",
    "HnfMatrix",
    "MPoly",
    "NodeBudget",
    "PruneRuleSet",
    "RatFunc",
    "SeriesTable",
    "SubringMatrix",
    "binomial",
    "canonical_rpstar",
    "catalog",
    "compositions",
    "diagonal_support_corank",
    "dump_matrices",
    "enumerate_irreducible",
    "enumerate_subrings",
    "expand",
    "functional_equation_check",
    "is_subring_matrix",
    "load_matrices",
    "smith_normal_form",
    "snf_oracle_minor_gcds",
]
