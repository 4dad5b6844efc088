"""Distribution utilities: quantile inversion accuracy and t(10) draws."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy import special

from oracles import normal_cdf
from ridgelab.errors import InputError
from ridgelab.simlab import sample_design, sample_noise
from ridgelab.spectrum import SpikedUniform
from ridgelab.stats import normal_quantile, scaled_t10, z_two_sided

_TOP = 1.0 - 2.0**-53  # the largest output of Generator.random


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


def test_normal_quantile_matches_scipy_ndtri():
    # the standard library's AS241 against scipy's inverse, over the whole
    # double range of the band (0, 1) and both tails
    ps = np.concatenate([
        np.logspace(-300, -1, 600),
        np.linspace(0.01, 0.99, 981),
        1.0 - np.logspace(-16, -1, 300),
    ])
    got = np.array([normal_quantile(float(p)) for p in ps])
    want = special.ndtri(ps)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # antisymmetric, bit for bit, at levels where 1 - p is exact
    for p in np.concatenate([np.arange(1, 1024) / 1024, np.random.default_rng(10).random(999)]):
        assert normal_quantile(float(1.0 - p)) == -normal_quantile(float(p))


def test_quantile_validation():
    with pytest.raises(InputError):
        normal_quantile(0.0)
    with pytest.raises(InputError):
        normal_quantile(1.0)
    with pytest.raises(InputError):
        z_two_sided(1.0)


class _Fixed:
    """Stands in for a Generator whose random() returns given uniforms."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


class _Counting(np.random.Generator):
    """A Generator that records every draw call made on it."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def random(self, *args, **kwargs):
        self.calls.append(("random", args))
        return super().random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls.append(("standard_normal", args))
        return super().standard_normal(*args, **kwargs)


def test_scaled_t10_matches_scipy_t10():
    n = 200000
    x = scaled_t10(np.random.default_rng(11), n) / math.sqrt(0.8)
    ks = scipy.stats.kstest(x, scipy.stats.t(10).cdf)
    # 1% critical value of the one-sample KS statistic
    assert ks.statistic < 1.63 / math.sqrt(n)
    # the KS statistic is weak in the tails: check tail masses to 4 binomial sds
    for c in (3.0, 5.0):
        p = 2.0 * scipy.stats.t(10).sf(c)
        assert abs(np.mean(np.abs(x) > c) - p) < 4.0 * math.sqrt(p * (1 - p) / n)


def test_scaled_t10_is_the_chi_square_ratio_of_its_uniforms():
    # textbook route from the same seven uniforms: sqrt(0.8) Z / sqrt(chi2_10 / 10)
    # with the Box-Muller Z = sqrt(-2 log(1 - U_0)) cos(2 pi U_1) and
    # chi2_10 = -2 (log U_2 + ... + log U_6)
    u = np.random.default_rng(12).random((7, 7, 9))
    z = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * math.pi * u[1])
    chi2 = -2.0 * np.log(u[2:]).sum(axis=0)
    expected = math.sqrt(0.8) * z / np.sqrt(chi2 / 10.0)
    np.testing.assert_allclose(scaled_t10(_Fixed(u), (7, 9)), expected, rtol=1e-13)


def test_scaled_t10_has_unit_variance():
    x = scaled_t10(np.random.default_rng(13), (1000, 1000))
    # E x^4 = 0.64 * 3 * 10^2 / (8 * 6) = 4, so mean(x^2) has sd sqrt(3 / 1e6)
    assert float(np.mean(x * x)) == pytest.approx(1.0, abs=0.01)
    assert float(np.mean(x)) == pytest.approx(0.0, abs=0.005)
    # odd moments and the sign vanish by symmetry
    assert float(np.mean(x**3)) == pytest.approx(0.0, abs=0.05)
    assert float(np.mean(x > 0)) == pytest.approx(0.5, abs=0.002)


def test_t10_symmetry_and_monotonicity():
    # U_1 -> U_1 + 1/2 (mod 1, exact for U_1 in [0, 1/2)) flips the sign of
    # the draw, and at fixed U_1 (cos 2 pi U_1 > 0) and U_2 ... U_6 the draw
    # increases with U_0, from 0 at U_0 = 0
    rng = np.random.default_rng(14)
    u1 = rng.random(10) / 2.0
    rows = rng.random((7, u1.size))
    rows[1] = u1
    shifted = rows.copy()
    shifted[1] = u1 + 0.5
    np.testing.assert_allclose(
        scaled_t10(_Fixed(rows), u1.size), -scaled_t10(_Fixed(shifted), u1.size),
        rtol=1e-12, atol=1e-12,
    )
    u0 = np.linspace(0.0, 0.95, 10)
    rest = np.random.default_rng(15).random(6)
    rest[0] = 0.1
    rows = np.vstack([u0, np.repeat(rest[:, None], u0.size, axis=1)])
    up = scaled_t10(_Fixed(rows), u0.size)
    assert up[0] == 0.0
    assert np.all(np.diff(up) > 0)


def test_t10_extreme_uniforms_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = scaled_t10(_Fixed(np.zeros((7, 3, 4))), (3, 4))
        high = scaled_t10(_Fixed(np.full((7, 3, 4), _TOP)), (3, 4))
    # U_0 = 0 gives Z = 0, and log(U_2 ... U_6) = -inf the draw 0
    assert np.all(low == 0.0)
    # 1 - U_0 = 2^-53 is the smallest argument of the log
    assert high.shape == (3, 4)
    assert np.all(np.isfinite(high)) and np.all(high > 0)


def test_scaled_t10_shapes():
    for shape, expected in ((5, (5,)), (np.int64(5), (5,)), ((3, 4), (3, 4)), ([2, 3], (2, 3))):
        assert scaled_t10(np.random.default_rng(15), shape).shape == expected
    # an int shape n and the tuple (n,) consume the stream identically
    np.testing.assert_array_equal(
        scaled_t10(np.random.default_rng(16), 6), scaled_t10(np.random.default_rng(16), (6,))
    )


def test_one_random_call_per_t10_stream():
    model = SpikedUniform(1.99, 0.01, 12)
    rng = _Counting(17)
    x = sample_design("scaled_t10", 8, 12, model, rng)
    assert rng.calls == [("random", ((7, 8, 12),))]
    assert x.shape == (8, 12)
    rng = _Counting(18)
    xi = sample_noise("scaled_t10", 8, 2.0, rng)
    assert rng.calls == [("random", ((7, 8),))]
    assert xi.shape == (8,)
