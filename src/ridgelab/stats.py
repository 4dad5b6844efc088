"""Scalar distribution utilities: normal CDF/quantile and t(10) inversion.

Quantiles come from scipy's exact inverses (`special.ndtri` for the normal,
`special.stdtrit` for Student t), not from table lookups or CDF searches.
`normal_cdf` is computed independently through `math.erf`, so the round
trip between the two is a real check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import InputError

_SQRT2 = math.sqrt(2.0)

T_DF = 10.0
# t(10) tail mass beyond 64 (about 1e-14). Uniforms are clipped into
# [_T_U_MIN, 1 - _T_U_MIN] only so that u = 0 or 1 gives a finite draw.
# Taken as 1 - F(64) so that 1 - _T_U_MIN is exact and the clip keeps
# t10_ppf(1 - u) == -t10_ppf(u).
_T_U_MIN = 1.0 - float(special.stdtr(T_DF, 64.0))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise InputError(f"quantile level must lie in (0, 1), got {p}")
    return float(special.ndtri(p))


def z_two_sided(alpha: float) -> float:
    """z_{alpha/2}: half-width multiplier of a two-sided level-(1-alpha) CI."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    return normal_quantile(1.0 - 0.5 * alpha)


def t10_ppf(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the t distribution with 10 degrees of freedom.

    Uniforms are clipped to the CDF range of [-64, 64] so that the
    endpoints 0 and 1 map to finite draws (about +-64).
    """
    u = np.clip(np.asarray(u, dtype=np.float64), _T_U_MIN, 1.0 - _T_U_MIN)
    return special.stdtrit(T_DF, u)


def scaled_t10(u: np.ndarray) -> np.ndarray:
    """t(10) draws scaled by sqrt(0.8) so the variance is exactly one."""
    return math.sqrt(0.8) * t10_ppf(u)
