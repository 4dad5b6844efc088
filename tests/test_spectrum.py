"""Covariance models: spectral functionals against dense linear algebra."""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest

from ridgelab import (
    Dataset,
    Explicit,
    InputError,
    Isotropic,
    ProblemConfig,
    SignalVector,
    SpikedUniform,
    confidence_intervals,
    coverage,
    debias,
    model_from_json,
    quad_form,
    sample_design,
    seq_model_sample,
    solve_effective,
    spiked_uniform,
    trace_functional,
)
from ridgelab import errors, spectrum
from ridgelab.fixedpoint import expected_dof, expected_err
from oracles import eigenvalues, materialize
from ridgelab.spectrum import fixed_point_sums, resolvent_sums, sigma_quad


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
    assert SpikedUniform(1.0, 0.5, 2).inv_harmonic_mean == pytest.approx(0.75, rel=1e-15)
    assert Explicit(np.array([4.0, 2.0])).inv_harmonic_mean == pytest.approx(
        0.375, rel=1e-15
    )
    assert Isotropic(2.0, 9).inv_harmonic_mean == pytest.approx(0.5, rel=1e-15)


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
    np.testing.assert_array_equal(model.block_values, [4.0, 2.0, 1.0])
    assert model.tail_sums is model.tail_sums
    assert model.block_values is model.block_values
    assert model.inv_harmonic_mean == pytest.approx(1.75 / 3.0, rel=1e-15)
    ones = model.pairs()[1]
    assert ones is model.pairs()[1]
    np.testing.assert_array_equal(model.weighted_spectrum, [4.0, 2.0, 1.0])
    np.testing.assert_array_equal(model.weighted_spectrum_sq, [16.0, 4.0, 1.0])
    assert model.weighted_spectrum is model.weighted_spectrum
    for arr in (model.tail_sums, model.block_starts, model.block_values, ones,
                model.weighted_spectrum, model.weighted_spectrum_sq):
        assert not arr.flags.writeable
    # one entry per distinct eigenvalue of pairs() plus one: spike 2.5, bulk 1 x 2
    spiked = SpikedUniform(1.0, 0.5, 3)
    np.testing.assert_array_equal(spiked.tail_sums, [4.5, 2.0, 0.0])
    np.testing.assert_array_equal(spiked.block_starts, [0.0, 1.0, 3.0])
    np.testing.assert_array_equal(spiked.block_values, [2.5, 1.0])
    assert spiked.block_values is spiked.block_values
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

    t10, t11 = exact(r) / n, exact(lam * r) / n
    # resolvent_sums' T_{-1,1} - phi reads T_{-1,0} on the branch
    # T_{-1,1} > 1/2. There, at phi = 1 - 0.99 tau T_{-1,0}, the difference
    # is a hundredth of tau T_{-1,0}, and t11 - phi would lose its digits
    expected, got = {"t21": exact(lam * r * r) / n}, {}
    for phi in (0.5, 1.0 - 0.99 * tau * t10):
        expected[f"excess at {phi}"] = t11 - phi if t11 <= 0.5 else (1.0 - phi) - tau * t10
        got[f"excess at {phi}"], got["t21"] = resolvent_sums(model, tau, phi)
    sums = fixed_point_sums(model, mu0, tau)
    expected.update(
        fp_t11=t11,
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


@pytest.mark.parametrize("tau, sums", [(30.0, 2), (1e-3, 3)])
def test_resolvent_sums_reads_t10_only_where_f_does(tau, sums):
    # T_{-1,1} is about 0.085 at tau = 30 and 0.997 at tau = 1e-3: one fused
    # sum each for T_{-1,1} and T_{-2,1}, and T_{-1,0} only above 1/2
    lam = np.exp(np.linspace(math.log(20.0), math.log(0.05), 1000))
    model = Explicit(lam)
    t11 = trace_functional(model, tau, 1, 1)
    assert (t11 > 0.5) == (sums == 3)
    with mock.patch.object(spectrum, "_dot", wraps=spectrum._dot) as dots:
        excess, t21 = resolvent_sums(model, tau, 0.5)
    assert dots.call_count == sums
    assert excess == pytest.approx(t11 - 0.5, rel=1e-13, abs=0.0)
    assert t21 == pytest.approx(trace_functional(model, tau, 2, 1), rel=1e-13, abs=0.0)


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


def _definition_sigma(model) -> np.ndarray:
    """Dense Sigma from the model's definition, not from its operators."""
    n = model.n
    if isinstance(model, Isotropic):
        return model.scale * np.eye(n)
    if isinstance(model, SpikedUniform):
        return model.a * np.eye(n) + model.b * np.ones((n, n))
    basis = np.eye(n) if model.basis is None else model.basis
    return basis @ np.diag(model.eigenvalues) @ basis.T


OPERATOR_MODELS = pytest.mark.parametrize(
    "model",
    [
        Isotropic(1.3, 16),
        SpikedUniform(2.0, 0.1, 16),
        spiked_uniform(2.0, 0.1, 1),
        Explicit(np.linspace(3.0, 0.5, 16)),
        random_psd_model(np.random.default_rng(3), 16),
    ],
    ids=["isotropic", "spiked", "spiked n=1", "explicit", "explicit basis"],
)


@OPERATOR_MODELS
def test_apply_and_diag_fn_match_dense_algebra(model, rng):
    n = model.n
    sigma = _definition_sigma(model)
    np.testing.assert_allclose(materialize(model)[0], sigma, rtol=1e-13, atol=1e-14)
    shift = sigma + 0.5 * np.eye(n)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        np.testing.assert_allclose(
            model.apply(lambda x: 1.0 / (x + 0.5), b), np.linalg.solve(shift, b),
            rtol=1e-12, atol=1e-14,
        )
        np.testing.assert_allclose(
            model.apply(lambda x: x * x, b), sigma @ (sigma @ b), rtol=1e-12, atol=1e-14
        )
    np.testing.assert_allclose(
        model.diag_fn(lambda x: x / (x + 1.0)),
        np.diag(np.linalg.solve(sigma + np.eye(n), sigma)),
        rtol=1e-12, atol=1e-14,
    )
    np.testing.assert_allclose(
        model.diag_fn(lambda x: x * x), np.diag(sigma @ sigma), rtol=1e-12, atol=1e-14
    )


@OPERATOR_MODELS
def test_operators_call_fn_once_on_the_distinct_eigenvalues(model):
    distinct = model.pairs()[0].tolist()
    seen = []

    def fn(lam):
        seen.append(lam.tolist())
        return lam

    model.apply(fn, np.ones(model.n))
    model.apply(fn, np.ones((model.n, 2)))
    model.diag_fn(fn)
    assert seen == [distinct] * 3


def test_spiked_operators_at_n_1_read_fn_at_the_one_eigenvalue(rng):
    # a is no eigenvalue at n = 1: the factory's model there is Isotropic(a + b)
    for a, b in rng.uniform(0.01, 5.0, (2000, 2)):
        model = spiked_uniform(a, b, 1)
        assert model == Isotropic(a + b, 1)
        root = math.sqrt(a + b)
        assert model.diag_fn(np.sqrt)[0] == root
        assert model.apply(np.sqrt, np.ones(1))[0] == root
    # an fn singular at a is not evaluated there (a RuntimeWarning is an error)
    assert spiked_uniform(2.0, 0.5, 1).diag_fn(lambda lam: 1.0 / (lam - 2.0))[0] == 2.0
    with pytest.raises(InputError, match=r"use spiked_uniform\(\) for n == 1"):
        SpikedUniform(2.0, 0.5, 1)


MODEL4 = Isotropic(1.0, 4)
E1 = [1.0, 0.0, 0.0, 0.0]
X4 = np.random.default_rng(0).standard_normal((3, 4))
# each call raised a raw AttributeError on an argument of the wrong type; the
# ones whose name ends in mu0 take the signal as their argument
WRONG_TYPE = {
    "Isotropic.apply operand": lambda _: MODEL4.apply(np.sqrt, E1),
    "SpikedUniform.apply operand": lambda _: SpikedUniform(1.0, 0.5, 4).apply(np.sqrt, E1),
    "debias mu_hat": lambda _: debias(E1, 1.0, MODEL4),
    "confidence_intervals mu_debiased": lambda _: confidence_intervals(E1, 1.0, MODEL4, 0.05),
    "ProblemConfig model": lambda _: ProblemConfig(0.5, 0.5, 1.0, None, SignalVector(E1)),
    "Dataset model None": lambda _: Dataset(X4, X4 @ E1, None),
    "Dataset model dict": lambda _: Dataset(X4, X4 @ E1, {"kind": "isotropic"}),
    "sample_design model": lambda _: sample_design("gaussian", 2, 4, None, 0),
    "debias model": lambda _: debias(np.ones(4), 1.0, None),
    "confidence_intervals model": lambda _: confidence_intervals(np.ones(4), 1.0, None, 0.05),
    "seq_model_sample model": lambda _: seq_model_sample(None, SignalVector(E1), 1.0, 1.0, 0),
    "trace_functional model": lambda _: trace_functional(None, 1.0, 1, 1),
    "quad_form model": lambda _: quad_form(None, SignalVector(E1), 1.0, 1, 1),
    "expected_err model": lambda _: expected_err(None, SignalVector(E1), 1.0, 1.0),
    "expected_dof model": lambda _: expected_dof(None, 1.0, 1.0),
    "coverage report": lambda _: coverage(None, SignalVector(E1)),
    "coverage mu0": lambda mu0: coverage(
        confidence_intervals(np.zeros(4), 1.0, MODEL4, 0.05), mu0),
    "seq_model_sample mu0": lambda mu0: seq_model_sample(MODEL4, mu0, 1.0, 1.0, 0),
    "ProblemConfig mu0": lambda mu0: solve_effective(
        ProblemConfig(0.5, 0.5, 1.0, MODEL4, mu0)).gamma_star_sq,
    "Dataset mu0": lambda mu0: Dataset(X4, X4 @ E1, MODEL4, mu0).mu0.norm_sq,
}


@pytest.mark.parametrize("case", WRONG_TYPE)
def test_an_argument_of_the_wrong_type_is_refused_or_cast(case):
    # a model or array argument of the wrong type is an InputError; a mu0
    # given as a list reads as the SignalVector of that list
    call = WRONG_TYPE[case]
    if case.endswith("mu0"):
        np.testing.assert_equal(call(list(E1)), call(SignalVector(E1)))
    else:
        with pytest.raises(InputError):
            call(None)


@pytest.mark.parametrize(
    "model",
    [Isotropic(1.0, 4), SpikedUniform(1.0, 0.5, 4), Explicit(np.linspace(3.0, 0.5, 4)),
     random_psd_model(np.random.default_rng(5), 4)],
    ids=["isotropic", "spiked", "explicit", "explicit basis"],
)
def test_every_path_to_apply_refuses_an_operand_of_another_dimension(model):
    # these used to return a wrong answer on the structured models and
    # raise numpy's broadcast ValueError on explicit ones
    short = np.ones(model.n - 1)
    calls = [
        lambda: model.apply(np.sqrt, short),
        lambda: model.apply(np.sqrt, np.ones((model.n - 1, 2))),
        lambda: sigma_quad(model, short),
        lambda: debias(short, 0.5, model),
        lambda: seq_model_sample(model, SignalVector(short), 1.0, 1.0, 0),
    ]
    for call in calls:
        with pytest.raises(InputError, match=r"operand with 4 rows, got shape \(3,"):
            call()


@pytest.mark.parametrize(
    "model", [Isotropic(1.3, 12), Explicit(np.linspace(3.0, 0.5, 12)),
              random_psd_model(np.random.default_rng(4), 12)],
    ids=["isotropic", "explicit", "explicit basis"],
)
def test_eigen_position_values_apply_in_the_fixed_eigenbasis(model, rng):
    # fn may return one value per eigen-position where the eigenbasis is fixed
    w = rng.uniform(0.0, 2.0, model.n)
    basis = getattr(model, "basis", None)
    basis = np.eye(model.n) if basis is None else basis
    dense = basis @ np.diag(w) @ basis.T
    for b in (rng.standard_normal(model.n), rng.standard_normal((model.n, 3))):
        np.testing.assert_allclose(model.apply(lambda _: w, b), dense @ b, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(model.diag_fn(lambda _: w), np.diag(dense), rtol=1e-12, atol=1e-14)


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
    # the 1e-10 is absolute: no relative slack on the unit diagonal
    rotation = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    Explicit(np.array([3.0, 2.0, 1.0]), rotation)
    for basis in (np.eye(3) * (1.0 + 4e-6), rotation * (1.0 + 1e-9)):
        with pytest.raises(InputError) as exc:
            Explicit(np.array([3.0, 2.0, 1.0]), basis)
        assert str(exc.value) == "basis columns are not orthonormal within 1e-10"
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


def test_signal_vector_validation():
    with pytest.raises(InputError):
        SignalVector(np.ones((2, 2)))
    with pytest.raises(InputError):
        SignalVector(np.array([1.0, np.nan]))
    with pytest.raises(InputError):
        SignalVector(np.ones(3)).masses(Isotropic(1.0, 4))
