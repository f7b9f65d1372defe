"""Exact and numeric spectral toolkit for the Rumin Laplacian on CR spheres.

Enumerates the full eigenvalue/multiplicity spectrum from highest-weight
data, evaluates the contact analytic torsion function by regularized
summation and by its closed form, and verifies the algebraic identities the
closed form rests on.

The exports are lazy.  ``_EXPORTS`` maps each exported name to its home
module, and ``__all__`` is built from it; importing the package loads none
of its modules.  The first read of a name imports its home module (PEP 562
``__getattr__``), so ``all_families`` loads ``spectrum`` and ``weights``
only, and ``kappa_closed`` loads ``torsion``, ``zeta``, the kernels and
mpmath.  The precision range and the refusal types live in ``limits``,
which is standard library only.
"""

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "limits": "DEFAULT_PRECISION_BITS DivergenceError PoleError PrecisionError",
    "spectrum": "BlockFamily Case all_families",
    "torsion": "KappaEstimate TorsionReport degree_weights degree_zetas_direct "
               "kappa_closed kappa_continued kappa_direct kappa_reduced "
               "tail_bound torsion_estimates",
    "verify": "c_coefficients sigma",
    "weights": "EnumerationBudgetError HighestWeight dimension_coefficients "
               "gt_pattern_count special_dimension",
    "zeta": "ZetaValue hurwitz_zeta hurwitz_zeta_and_deriv riemann_zeta",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(_EXPORTS[name], globals(), None, (name,), 1), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    # ``dir()`` and tab completion list the exports before their first read
    # loads them.  No request calls it: it is the one function of the
    # package that the commands never enter.
    return sorted(set(globals()) | set(__all__))
