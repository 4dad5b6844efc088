"""Covariance models: spectral functionals against dense linear algebra."""

import gc
import math
import weakref

import numpy as np
import pytest

from ridgelab import (
    Explicit,
    InputError,
    Isotropic,
    ProblemConfig,
    SignalVector,
    SpikedUniform,
    eigenvalues,
    harmonic_mean,
    materialize,
    model_from_json,
    quad_form,
    sigma_quad,
    solve_effective,
    spiked_uniform,
    trace_functional,
)
from ridgelab import errors
from ridgelab.spectrum import fixed_point_sums, resolvent_sums


def random_psd_model(rng: np.random.Generator, n: int = 50) -> Explicit:
    lam = np.sort(rng.uniform(0.2, 5.0, n))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Explicit(lam, basis)


def test_isotropic_trace_closed_form():
    model = Isotropic(1.0, 7)
    for p, q, tau in [(1, 1, 0.5), (2, 1, 1.0), (2, 2, 2.0), (3, 2, 0.25), (1, 0, 1.5)]:
        assert trace_functional(model, tau, p, q) == pytest.approx(
            1.0 / (1.0 + tau) ** p, rel=1e-15
        )
    scaled = Isotropic(2.3, 7)
    assert trace_functional(scaled, 0.7, 2, 1) == pytest.approx(
        2.3 / (2.3 + 0.7) ** 2, rel=1e-15
    )


def test_spiked_trace_example():
    # eigenvalues {a + b n, a} = {2, 1} with multiplicities {1, 1}
    model = SpikedUniform(1.0, 0.5, 2)
    assert model.top == pytest.approx(2.0)
    assert trace_functional(model, 1.0, 1, 1) == pytest.approx(7.0 / 12.0, rel=1e-15)


def test_harmonic_mean_examples():
    assert harmonic_mean(SpikedUniform(1.0, 0.5, 2)) == pytest.approx(0.75, rel=1e-15)
    assert harmonic_mean(Explicit(np.array([4.0, 2.0]))) == pytest.approx(
        0.375, rel=1e-15
    )
    assert harmonic_mean(Isotropic(2.0, 9)) == pytest.approx(0.5, rel=1e-15)


def test_trace_complement_identity(rng):
    # lam/(lam+tau) + tau/(lam+tau) = 1 pointwise
    for model in (
        Isotropic(1.7, 12),
        SpikedUniform(1.99, 0.01, 30),
        random_psd_model(rng, 25),
    ):
        for tau in (0.1, 1.0, 3.7):
            total = trace_functional(model, tau, 1, 1) + tau * trace_functional(
                model, tau, 1, 0
            )
            assert total == pytest.approx(1.0, abs=1e-14)


def test_trace_monotone_decreasing_in_tau(rng):
    model = random_psd_model(rng, 30)
    taus = np.linspace(0.05, 4.0, 40)
    vals = [trace_functional(model, t, 1, 1) for t in taus]
    assert np.all(np.diff(vals) < 0)


def test_quad_form_spike_direction():
    model = SpikedUniform(1.0, 0.5, 2)
    mu0 = SignalVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    # unit mass on the top eigenvalue: lam/(lam+tau)^2 at lam=2, tau=1
    assert quad_form(model, mu0, 1.0, 1, 1) == pytest.approx(2.0 / 9.0, rel=1e-14)


def test_quad_and_trace_match_dense(rng):
    model = random_psd_model(rng, 50)
    sigma, _, _ = materialize(model)
    n = model.n
    tau = 0.8
    mu0 = SignalVector(rng.standard_normal(n) / np.sqrt(n))
    inv = np.linalg.inv(sigma + tau * np.eye(n))
    dense_t21 = np.trace(inv @ inv @ sigma) / n
    assert trace_functional(model, tau, 2, 1) == pytest.approx(dense_t21, rel=1e-12)
    dense_qf = float(mu0.coords @ inv @ sigma @ inv @ mu0.coords)
    assert quad_form(model, mu0, tau, 1, 1) == pytest.approx(dense_qf, rel=1e-12)


@pytest.mark.parametrize("model", [
    Isotropic(1.7, 5),
    SpikedUniform(0.9, 0.3, 7),
    Explicit(np.geomspace(30.0, 1e-3, 40)),
])
def test_powers_by_multiplication_match_float_pow(model):
    # the reference is the float-pow form; the two differ only in rounding,
    # a few ulps per positive term
    lam, counts = model.pairs()
    mu0 = SignalVector(np.linspace(-1.0, 2.0, model.n))
    masses = mu0.masses(model)
    for tau in (0.0, 0.37, 250.0):
        for p in range(4):
            for q in range(4):
                if p == q == 0:
                    continue
                ref = np.sum(counts * lam**q / (lam + tau) ** p) / model.n
                got = trace_functional(model, tau, p, q)
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
                ref = np.sum(masses * lam**q / (lam + tau) ** (2 * p))
                assert quad_form(model, mu0, tau, p, q) == pytest.approx(
                    ref, rel=1e-14, abs=0.0
                )


def test_spectral_sums_are_cached_on_the_model():
    model = Explicit(np.array([4.0, 2.0, 1.0]))
    np.testing.assert_array_equal(model.tail_sums, [7.0, 3.0, 1.0, 0.0])
    np.testing.assert_array_equal(model.block_starts, [0.0, 1.0, 2.0, 3.0])
    assert model.tail_sums is model.tail_sums
    assert harmonic_mean(model) == pytest.approx(1.75 / 3.0, rel=1e-15)
    ones = model.pairs()[1]
    assert ones is model.pairs()[1]
    np.testing.assert_array_equal(model.weighted_spectrum, [4.0, 2.0, 1.0])
    np.testing.assert_array_equal(model.weighted_spectrum_sq, [16.0, 4.0, 1.0])
    assert model.weighted_spectrum is model.weighted_spectrum
    for arr in (model.tail_sums, model.block_starts, ones, model.weighted_spectrum,
                model.weighted_spectrum_sq):
        assert not arr.flags.writeable
    # one entry per distinct eigenvalue of pairs() plus one: spike 2.5, bulk 1 x 2
    spiked = SpikedUniform(1.0, 0.5, 3)
    np.testing.assert_array_equal(spiked.tail_sums, [4.5, 2.0, 0.0])
    np.testing.assert_array_equal(spiked.block_starts, [0.0, 1.0, 3.0])
    np.testing.assert_array_equal(spiked.weighted_spectrum, [2.5, 2.0])
    np.testing.assert_array_equal(spiked.weighted_spectrum_sq, [6.25, 2.0])
    big = Isotropic(1.0, 10**6)
    np.testing.assert_array_equal(big.tail_sums, [1e6, 0.0])
    np.testing.assert_array_equal(big.block_starts, [0.0, 1e6])
    # the cache lives and dies with its model: nothing else holds the model
    config = ProblemConfig(
        phi=0.5, eta=0.3, sigma_sq=1.0, model=model, mu0=SignalVector([1.0, 0.0, 0.0])
    )
    solve_effective(config)
    ref = weakref.ref(model)
    del model, config, ones
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("tau", [1e-3, 0.4, 30.0])
def test_fused_sums_match_exact_sums_on_a_large_spectrum(tau):
    # resolvent_sums and fixed_point_sums against math.fsum of the same
    # terms: exact summation, so this bounds the fused passes' rounding
    rng = np.random.default_rng(11)
    n = 100_000
    lam = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(20.0), n)))[::-1]
    model = Explicit(lam)
    mu0 = SignalVector(rng.standard_normal(n) / math.sqrt(n))
    masses = mu0.masses(model)
    r = 1.0 / (lam + tau)

    def exact(terms):
        return math.fsum(terms.tolist())

    expected = {
        "t10": exact(r) / n,
        "t11": exact(lam * r) / n,
        "t21": exact(lam * r * r) / n,
    }
    got = dict(zip(("t10", "t11", "t21"), resolvent_sums(model, tau)))
    sums = fixed_point_sums(model, mu0, tau)
    expected.update(
        fp_t11=exact(lam * r) / n,
        fp_t21=exact(lam * r * r) / n,
        fp_t31=exact(lam * r * r * r) / n,
        fp_t22=exact(lam * lam * r * r) / n,
        fp_t32=exact(lam * lam * r * r * r) / n,
        fp_signal=exact(masses * lam * r * r),
        fp_signal0=exact(masses * r * r),
    )
    got.update({f"fp_{name}": value for name, value in sums._asdict().items()})
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, rel=1e-13, abs=0.0), name


def test_sigma_quad_matches_dense(rng):
    model = SpikedUniform(1.5, 0.2, 20)
    sigma, _, _ = materialize(model)
    v = rng.standard_normal(20)
    assert sigma_quad(model, v) == pytest.approx(float(v @ sigma @ v), rel=1e-12)


def test_rotation_invariance_of_spectral_functionals(rng):
    lam = np.sort(rng.uniform(0.3, 4.0, 20))[::-1]
    basis = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    plain, rotated = Explicit(lam), Explicit(lam, basis)
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        assert trace_functional(plain, 0.9, p, q) == pytest.approx(
            trace_functional(rotated, 0.9, p, q), rel=1e-13
        )


def test_eigen_apply_matches_apply(rng):
    v = rng.standard_normal(16)
    for model in (Isotropic(1.3, 16), SpikedUniform(2.0, 0.1, 16)):
        lam = eigenvalues(model)
        via_apply = model.apply(lambda x: 1.0 / (x + 0.5), v)
        via_eigen = model.eigen_apply(1.0 / (lam + 0.5), v)
        np.testing.assert_allclose(via_eigen, via_apply, rtol=1e-13)
    model = random_psd_model(rng, 16)
    lam = eigenvalues(model)
    np.testing.assert_allclose(
        model.eigen_apply(np.sqrt(lam), v), model.apply(np.sqrt, v), rtol=1e-13
    )


def test_eigen_diag_matches_diag_fn(rng):
    for model in (
        Isotropic(0.8, 10),
        SpikedUniform(1.0, 0.5, 10),
        random_psd_model(rng, 10),
    ):
        lam = eigenvalues(model)
        np.testing.assert_allclose(
            model.eigen_diag(lam / (lam + 1.0)),
            model.diag_fn(lambda x: x / (x + 1.0)),
            rtol=1e-13,
        )


def test_spiked_eigen_values_must_be_constant_on_bulk():
    model = SpikedUniform(1.0, 0.5, 4)
    with pytest.raises(InputError):
        model.eigen_apply(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))


def test_signal_masses_sum_to_norm(rng):
    v = rng.standard_normal(12)
    sig = SignalVector(v)
    for model in (
        Isotropic(1.0, 12),
        SpikedUniform(1.0, 0.3, 12),
        random_psd_model(rng, 12),
    ):
        assert float(sig.masses(model).sum()) == pytest.approx(sig.norm_sq, rel=1e-13)


def test_spiked_signal_mass_split():
    model = SpikedUniform(1.0, 0.5, 4)
    sig = SignalVector(np.array([1.0, 1.0, 1.0, 1.0]))
    masses = sig.masses(model)
    # everything on the ones direction
    assert masses[0] == pytest.approx(4.0, rel=1e-14)
    assert masses[1] == pytest.approx(0.0, abs=1e-14)


def test_degenerate_orders_rejected():
    model = Isotropic(1.0, 3)
    with pytest.raises(InputError):
        trace_functional(model, 1.0, 0, 0)
    with pytest.raises(InputError):
        quad_form(model, SignalVector(np.ones(3)), 1.0, 0, 0)
    with pytest.raises(InputError):
        trace_functional(model, 1.0, -1, 1)
    with pytest.raises(InputError):
        trace_functional(model, -0.5, 1, 1)


def test_spiked_factory_normalizes_b_zero():
    model = spiked_uniform(1.5, 0.0, 7)
    assert isinstance(model, Isotropic)
    assert model.scale == 1.5 and model.n == 7
    assert isinstance(spiked_uniform(1.5, 0.2, 7), SpikedUniform)


def test_model_validation_errors():
    with pytest.raises(InputError):
        Isotropic(0.0, 4)
    with pytest.raises(InputError):
        Isotropic(1.0, 0)
    with pytest.raises(InputError):
        SpikedUniform(1.0, 0.0, 4)
    with pytest.raises(InputError):
        Explicit(np.array([1.0, 2.0]))  # ascending order
    with pytest.raises(InputError):
        Explicit(np.array([2.0, 0.0]))
    with pytest.raises(InputError):
        Explicit(np.array([2.0, 1.0]), basis=np.ones((2, 2)))
    for edge in errors.SPECTRUM_RANGE:
        assert Isotropic(edge, 2).scale == edge
        assert Explicit(np.array([edge])).eigenvalues[0] == edge


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Isotropic(1e-300, 4), "'scale' of isotropic model must lie in [1e-60, 1e+60], got 1e-300"),
        (lambda: Isotropic(math.nan, 4), "'scale' of isotropic model must lie in [1e-60, 1e+60], got nan"),
        (lambda: SpikedUniform(1e200, 1.0, 4), "'a' of spiked_uniform model must lie in [1e-60, 1e+60], got 1e+200"),
        (lambda: SpikedUniform(1.0, 1e200, 4),
         "'b' of spiked_uniform model must be 0 or lie in [1e-60, 1e+60], got 1e+200"),
        (lambda: SpikedUniform(1.0, -1.0, 4),
         "'b' of spiked_uniform model must be 0 or lie in [1e-60, 1e+60], got -1.0"),
        (lambda: SpikedUniform(1.0, 0.0, 4), "b must be positive (use spiked_uniform() for b == 0)"),
        (lambda: spiked_uniform(1e-61, 0.0, 4), "'a' of spiked_uniform model must lie in [1e-60, 1e+60], got 1e-61"),
        (lambda: Explicit(np.array([3.0, math.nan, 1.0])),
         "eigenvalues of explicit model must lie in [1e-60, 1e+60], got nan"),
        (lambda: Explicit(np.array([3.0, 1.0, 1e-61])),
         "eigenvalues of explicit model must lie in [1e-60, 1e+60], got 1e-61"),
    ],
)
def test_model_scales_are_held_to_the_spectrum_band(build, message):
    # each model checks its own scales, so the CLI, experiments, datasets
    # and library callers all refuse the same ones
    with pytest.raises(InputError) as exc:
        build()
    assert str(exc.value) == message


def test_model_json_round_trip(rng):
    models = [
        Isotropic(1.3, 5),
        SpikedUniform(1.99, 0.01, 6),
        random_psd_model(rng, 4),
        Explicit(np.array([3.0, 1.0])),
    ]
    for model in models:
        back = model_from_json(model.to_json())
        assert back.kind == model.kind
        np.testing.assert_allclose(eigenvalues(back), eigenvalues(model), rtol=1e-15)


def test_model_json_rejects_unknown_and_extra_keys():
    with pytest.raises(InputError):
        model_from_json({"kind": "mystery", "n": 3})
    with pytest.raises(InputError):
        model_from_json({"kind": "isotropic", "n": 3, "scale": 1.0, "extra": 1})
    with pytest.raises(InputError):
        model_from_json({"kind": "explicit", "n": 3, "eigenvalues": [2.0, 1.0]})
    with pytest.raises(InputError):
        model_from_json({"scale": 1.0, "n": 3})


def test_materialize_guard():
    with pytest.raises(InputError):
        materialize(Isotropic(1.0, 20001))


def test_signal_vector_validation():
    with pytest.raises(InputError):
        SignalVector(np.ones((2, 2)))
    with pytest.raises(InputError):
        SignalVector(np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        SignalVector(np.ones(3)).masses(Isotropic(1.0, 4))
