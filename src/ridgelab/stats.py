"""Scalar distribution utilities: normal quantiles and t(10) draws.

Normal quantiles come from the standard library's
`statistics.NormalDist.inv_cdf` (Wichura's algorithm AS241; within 1e-15
relative of scipy's `ndtri` over the whole band, tests/test_stats.py),
not from table lookups or CDF searches; the tests check the round trip
against a normal CDF computed independently through `math.erf`
(tests/oracles.py). The module uses no scipy, so no
command loads `scipy.special` (tests/test_imports.py refuses any
reference to it in the package). `statistics` is imported where the
quantile is computed, so the commands that compute none (`fpe`, `risk`,
`lq`, `fit`, `tune`) never load it.

t(10) draws use no inverse CDF. With U_0, ..., U_6 i.i.d. uniform on
[0, 1), Box and Muller's transform gives

    Z = sqrt(-2 log(1 - U_0)) cos(2 pi U_1) ~ N(0, 1),

and -2 log U_i is Exp(2), so -2 log(U_2 ... U_6) is a sum of five Exp(2)
draws, which is chi^2 with 10 degrees of freedom, independent of Z. Hence

    sqrt(0.8) t_10 = sqrt(0.8) Z / sqrt(chi^2_10 / 10)
                   = Z sqrt(-4 / log(U_2 ... U_6))

exactly, from seven uniforms of one `Generator.random` call. The outputs
of `Generator.random` are multiples of 2^-53 in [0, 1 - 2^-53], so
1 - U_0 is exact and lies in [2^-53, 1], and Z is finite. A zero among
U_2 ... U_6 gives log 0 = -inf and the draw 0, also finite; the product
of five nonzero uniforms, each at least 2^-53, cannot underflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_alpha


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    import statistics

    return statistics.NormalDist().inv_cdf(check_alpha(p, "quantile level"))


def z_two_sided(alpha: float) -> float:
    """z_{alpha/2}: half-width multiplier of a two-sided level-(1-alpha) CI."""
    return normal_quantile(1.0 - 0.5 * check_alpha(alpha))


def scaled_t10(rng: np.random.Generator, shape) -> np.ndarray:
    """t(10) draws of the given shape, scaled by sqrt(0.8) to unit variance.

    One rng.random((7,) + shape) call; see the module docstring. The work
    happens in place on that buffer, and the result is a fresh array, so
    the buffer is freed on return.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    u = rng.random((7, *shape))
    z, angle, w = u[0], u[1], u[2]
    np.subtract(1.0, z, out=z)
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    angle *= 2.0 * math.pi
    np.cos(angle, out=angle)
    z *= angle
    for row in u[3:]:
        w *= row
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
    np.divide(-4.0, w, out=w)
    np.sqrt(w, out=w)
    return z * w
