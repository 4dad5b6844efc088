"""Distribution utilities: quantile inversion accuracy and scaling."""

import math

import numpy as np
import pytest
import scipy.stats

from ridgelab.errors import InputError
from ridgelab.stats import normal_cdf, normal_quantile, scaled_t10, t10_ppf, z_two_sided


def test_normal_quantile_frozen_values():
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400545, abs=1e-11)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert z_two_sided(0.05) == pytest.approx(1.9599639845400542, abs=1e-11)
    assert z_two_sided(0.32) == pytest.approx(0.9944578832097532, abs=1e-11)


def test_normal_quantile_round_trip():
    for p in np.linspace(0.01, 0.99, 23):
        assert normal_cdf(normal_quantile(float(p))) == pytest.approx(p, abs=1e-12)
        assert normal_quantile(float(p)) == pytest.approx(
            -normal_quantile(float(1.0 - p)), abs=1e-11
        )


def test_quantile_validation():
    with pytest.raises(InputError):
        normal_quantile(0.0)
    with pytest.raises(InputError):
        normal_quantile(1.0)
    with pytest.raises(InputError):
        z_two_sided(1.0)


def test_t10_ppf_matches_scipy():
    u = np.linspace(0.001, 0.999, 101)
    np.testing.assert_allclose(t10_ppf(u), scipy.stats.t.ppf(u, 10), atol=1e-9)


def _t10_cdf_closed_form(t):
    # even degrees of freedom (Abramowitz & Stegun 26.7.3), independent of scipy
    r = t * t + 10.0
    sin_theta = t / np.sqrt(r)
    c = 10.0 / r
    series = 1.0 + c / 2 + 3 * c**2 / 8 + 5 * c**3 / 16 + 35 * c**4 / 128
    return 0.5 + 0.5 * sin_theta * series


def test_t10_ppf_round_trips_through_closed_form_cdf():
    u = np.concatenate(
        [
            np.linspace(1e-6, 1.0 - 1e-6, 2001),
            np.geomspace(1e-6, 0.5, 400),
            1.0 - np.geomspace(1e-6, 0.5, 400),
        ]
    )
    np.testing.assert_allclose(_t10_cdf_closed_form(t10_ppf(u)), u, rtol=0, atol=1e-14)


def test_t10_ppf_upper_tail_antisymmetry():
    # 1 - w is exact for w in [0.5, 1], so the two arguments are true complements
    w = 1.0 - np.geomspace(1e-14, 1e-2, 200)
    np.testing.assert_allclose(t10_ppf(w), -t10_ppf(1.0 - w), rtol=1e-12, atol=0)


def test_t10_symmetry_and_monotonicity():
    u = np.linspace(0.05, 0.95, 19)
    vals = t10_ppf(u)
    np.testing.assert_allclose(vals, -t10_ppf(1.0 - u), atol=1e-10)
    assert np.all(np.diff(vals) > 0)
    assert t10_ppf(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-11)


def test_t10_extreme_uniforms_stay_finite():
    vals = t10_ppf(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(-64.0, abs=1.0)


def test_scaled_t10_has_unit_variance():
    # midpoint quadrature of ppf(u)^2; t(10) variance 10/8 times 0.8 is one
    u = (np.arange(400000) + 0.5) / 400000
    var = float(np.mean(scaled_t10(u) ** 2))
    assert var == pytest.approx(1.0, abs=2e-3)
    np.testing.assert_allclose(
        scaled_t10(np.array([0.3, 0.7])),
        math.sqrt(0.8) * t10_ppf(np.array([0.3, 0.7])),
        rtol=1e-14,
    )
