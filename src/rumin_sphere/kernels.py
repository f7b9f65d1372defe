"""The truncated spectral-sum kernels used by the direct torsion route."""

from ._kernels_py import axis_family_sum, pair_family_sum, term_roundings

__all__ = ["axis_family_sum", "pair_family_sum", "term_roundings"]
