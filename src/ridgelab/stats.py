"""Scalar distribution utilities: normal CDF/quantile and t(10) draws.

Normal quantiles come from scipy's exact inverse (`special.ndtri`), not
from table lookups or CDF searches. `normal_cdf` is computed independently
through `math.erf`, so the round trip between the two is a real check.

t(10) draws use no inverse CDF. With U_0, ..., U_5 i.i.d. uniform on
[0, 1), -2 log U_i is Exp(2), so -2 log(U_1 ... U_5) is a sum of five
Exp(2) draws, which is chi^2 with 10 degrees of freedom, independent of
Z = ndtri(U_0) ~ N(0, 1). Hence

    sqrt(0.8) t_10 = sqrt(0.8) Z / sqrt(chi^2_10 / 10)
                   = Z sqrt(-4 / log(U_1 ... U_5))

exactly, from six uniforms of one `Generator.random` call. U_0 is clipped
into [2^-53, 1 - 2^-53], the range of nonzero outputs of
`Generator.random`, so that U_0 = 0 (or a 1 from another source of
uniforms) still gives a finite Z. A zero among U_1 ... U_5 gives
log 0 = -inf and the draw 0, also finite; the product of five nonzero
uniforms, each at least 2^-53, cannot underflow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import check_alpha

_SQRT2 = math.sqrt(2.0)
_U_EPS = 2.0**-53


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    return float(special.ndtri(check_alpha(p, "quantile level")))


def z_two_sided(alpha: float) -> float:
    """z_{alpha/2}: half-width multiplier of a two-sided level-(1-alpha) CI."""
    return normal_quantile(1.0 - 0.5 * check_alpha(alpha))


def scaled_t10(rng: np.random.Generator, shape) -> np.ndarray:
    """t(10) draws of the given shape, scaled by sqrt(0.8) to unit variance.

    One rng.random((6,) + shape) call; see the module docstring. The work
    happens in place on that buffer, and the result is a fresh array, so
    the buffer is freed on return.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    u = rng.random((6, *shape))
    z, w = u[0], u[1]
    np.clip(z, _U_EPS, 1.0 - _U_EPS, out=z)
    special.ndtri(z, out=z)
    for row in u[2:]:
        w *= row
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
    np.divide(-4.0, w, out=w)
    np.sqrt(w, out=w)
    return z * w
