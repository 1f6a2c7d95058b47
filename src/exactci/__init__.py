"""Exact confidence intervals for the average causal effect on a binary outcome.

Completely randomized experiment, n units, m treated. All effect values,
p-values, and acceptance decisions use exact rational arithmetic.
"""

from .coverage import CoverageReport, exact_coverage_sweep
from .errors import (
    DegenerateArm,
    EmptyAcceptance,
    ExactCIError,
    InvalidLevel,
    ScaleGuard,
    SizeMismatch,
)
from .hypergeom import ci_count
from .methods import (
    METHODS,
    MethodResult,
    ci_bonferroni,
    ci_brute_force,
    ci_margin_inversion,
    ci_one_sided,
    ci_two_sided_frontier,
    compute_ci,
    frontier_scan,
)
from .randtest import p_one_sided, p_two_sided
from .tables import (
    ObservedTable,
    PotentialTable,
    attainable_ntau_range,
    enumerate_compatible,
    is_compatible,
)

__version__ = "0.1.0"

__all__ = [
    "ObservedTable",
    "PotentialTable",
    "is_compatible",
    "enumerate_compatible",
    "attainable_ntau_range",
    "ci_count",
    "p_one_sided",
    "p_two_sided",
    "MethodResult",
    "METHODS",
    "compute_ci",
    "ci_bonferroni",
    "ci_margin_inversion",
    "ci_two_sided_frontier",
    "ci_one_sided",
    "ci_brute_force",
    "frontier_scan",
    "CoverageReport",
    "exact_coverage_sweep",
    "ExactCIError",
    "DegenerateArm",
    "SizeMismatch",
    "InvalidLevel",
    "ScaleGuard",
    "EmptyAcceptance",
]
