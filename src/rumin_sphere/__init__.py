"""Exact and numeric spectral toolkit for the Rumin Laplacian on CR spheres.

Enumerates the full eigenvalue/multiplicity spectrum from highest-weight
data, evaluates the contact analytic torsion function by regularized
summation and by its closed form, and verifies the algebraic identities the
closed form rests on.
"""

from .spectrum import (
    BlockFamily,
    Case,
    CaseRangeError,
    InvalidLabelError,
    RuminLabel,
    all_families,
    case_v_identity_value,
    case_v_mixed_eigenvalue,
    eigenvalue_formula,
    label_to_weight,
    norm_route_eigenvalue,
    operator_norm_squares,
    spectrum_slice,
    squared_norm,
)
from .torsion import (
    DivergenceError,
    KappaEstimate,
    TorsionReport,
    degree_weights,
    degree_zetas_direct,
    kappa_closed,
    kappa_continued,
    kappa_direct,
    kappa_reduced,
    tail_bound,
    torsion_estimates,
)
from .verify import c_coefficients, sigma
from .weights import (
    EnumerationBudgetError,
    HighestWeight,
    dimension_coefficients,
    gt_pattern_count,
    special_dimension,
    weyl_dimension,
)
from .zeta import (
    DEFAULT_PRECISION_BITS,
    PoleError,
    PrecisionError,
    ZetaValue,
    hurwitz_zeta,
    hurwitz_zeta_and_deriv,
    riemann_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "BlockFamily",
    "Case",
    "CaseRangeError",
    "DEFAULT_PRECISION_BITS",
    "DivergenceError",
    "EnumerationBudgetError",
    "HighestWeight",
    "InvalidLabelError",
    "KappaEstimate",
    "PoleError",
    "PrecisionError",
    "RuminLabel",
    "TorsionReport",
    "ZetaValue",
    "all_families",
    "c_coefficients",
    "case_v_identity_value",
    "case_v_mixed_eigenvalue",
    "degree_weights",
    "degree_zetas_direct",
    "dimension_coefficients",
    "eigenvalue_formula",
    "gt_pattern_count",
    "hurwitz_zeta",
    "hurwitz_zeta_and_deriv",
    "kappa_closed",
    "kappa_continued",
    "kappa_direct",
    "kappa_reduced",
    "label_to_weight",
    "norm_route_eigenvalue",
    "operator_norm_squares",
    "riemann_zeta",
    "sigma",
    "special_dimension",
    "spectrum_slice",
    "squared_norm",
    "tail_bound",
    "torsion_estimates",
    "weyl_dimension",
]
