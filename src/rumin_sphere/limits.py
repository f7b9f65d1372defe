"""The working-precision range and the refusals that ``cli.main``'s exit
table names.

Standard library only: ``--prec`` is checked and every refusal is mapped to
its exit code without loading mpmath, which only the numeric modules
(``zeta``, ``torsion``, ``verify``) import.
"""

from __future__ import annotations

from typing import Optional

DEFAULT_PRECISION_BITS = 128
# The highest precision at which a zeta pass's 700 Bernoulli orders reach
# their target with K = 0.35 prec + 8, for every zeta argument the CLI can
# pass.  A negative argument -sigma leaves about 2R - sigma useful orders,
# so the most negative one binds: 2s = -326 +- 2^-44, from a kappa route at
# s within an ulp of -163, the lowest point that the kappa range check lets
# through (sin(pi s) is about 1e-13 there).  Its pass converges at 5227 bits
# and not at 5228; zeta'(0), for torsion and verify, converges up to 6815.
# The 20 passes of verify's shift check, at a in 1..9 and s in [-4, 6],
# converge at 5227 bits.
MAX_PRECISION_BITS = 5227


class PoleError(ValueError):
    """Evaluation requested at a pole of the zeta function."""


class PrecisionError(ValueError):
    """Requested precision outside the configured working range."""


class DivergenceError(ValueError):
    """Direct summation requested where the defining series diverges."""


def _check_precision(precision: Optional[int]) -> int:
    prec = DEFAULT_PRECISION_BITS if precision is None else int(precision)
    if prec < 8 or prec > MAX_PRECISION_BITS:
        raise PrecisionError(
            f"requested precision {prec} outside the working range "
            f"8..{MAX_PRECISION_BITS} bits"
        )
    return prec
