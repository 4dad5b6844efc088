"""Simulation harness: samplers, sequence-model laws, experiment determinism."""

import math
import re

import numpy as np
import pytest
import scipy.special

from ridgelab import (
    Dataset,
    ExperimentConfig,
    Explicit,
    InputError,
    Isotropic,
    ProblemConfig,
    RiskKind,
    SignalVector,
    SpikedUniform,
    confidence_intervals,
    distributional_check,
    lq_gamma_diag,
    lq_risk,
    quad_form,
    ridge_fit,
    ridgeless_fit,
    risk_curves,
    run_argmin_experiment,
    run_risk_experiment,
    run_tuning_experiment,
    sample_design,
    sample_noise,
    sample_signal,
    seq_model_lq_mc,
    seq_model_sample,
    solve_effective,
    solve_grid,
    spiked_uniform,
    stream,
    trace_functional,
)
from oracles import empirical_risk
from ridgelab import regress, simlab
from ridgelab.simlab import build_model


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        m=40,
        n=80,
        model_spec={"kind": "isotropic", "scale": 1.0},
        etas=(0.0, 0.5, 1.0, 1.5),
        design_dist="gaussian",
        noise_dist="gaussian",
        sigma_sq=1.0,
        signal_radius=1.0,
        reps=6,
        master_seed=3,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sample_signal_sphere_norm_and_determinism():
    sig = sample_signal("sphere", 64, 9, radius=0.7)
    assert sig.norm == pytest.approx(0.7, rel=1e-12)
    again = sample_signal("sphere", 64, 9, radius=0.7)
    np.testing.assert_array_equal(sig.coords, again.coords)
    other = sample_signal("sphere", 64, 10, radius=0.7)
    assert not np.array_equal(sig.coords, other.coords)
    with pytest.raises(InputError):
        sample_signal("cube", 64, 9)


def test_sample_signal_radius_is_nonnegative():
    for mode in ("sphere", "ball_radial"):
        # radius 0 is a pure-noise problem's signal
        np.testing.assert_array_equal(sample_signal(mode, 8, 1, radius=0.0).coords, 0.0)
        for radius in (-1.0, math.nan):
            with pytest.raises(InputError, match="signal radius must be nonnegative"):
                sample_signal(mode, 8, 1, radius=radius)


def test_sample_signal_ball_radial_norm_distribution():
    norms = [
        sample_signal("ball_radial", 8, seed, radius=1.0).norm
        for seed in range(4000)
    ]
    # the norm is uniform on [0, 1]
    assert float(np.mean(norms)) == pytest.approx(0.5, abs=0.02)
    assert max(norms) <= 1.0


def test_sample_design_covariance_scaling():
    model = SpikedUniform(1.99, 0.01, 200)
    x = sample_design("gaussian", 2000, 200, model, 4)
    # E||row||^2 = tr(Sigma) = 200 * 1.99 + 0.01 * 200 = 400
    assert float(np.mean(np.sum(x * x, axis=1))) == pytest.approx(400.0, rel=0.02)


def test_sample_design_t10_unit_variance():
    x = sample_design("scaled_t10", 400, 400, Isotropic(1.0, 400), 5)
    assert float(np.mean(x * x)) == pytest.approx(1.0, abs=0.02)
    with pytest.raises(InputError):
        sample_design("cauchy", 10, 10, Isotropic(1.0, 10), 5)
    with pytest.raises(InputError):
        sample_design("gaussian", 10, 12, Isotropic(1.0, 10), 5)


@pytest.mark.parametrize("m, n", [(100, 200), (200, 400)], ids=["160KB", "640KB"])
def test_sample_design_is_c_ordered_at_every_shape(m, n):
    # the Gram products round by the design's layout; numpy reuses a sum's
    # temporary, and so its layout, only above 256 KiB
    basis = np.linalg.qr(np.random.default_rng(6).standard_normal((n, n)))[0]
    lam = np.linspace(3.0, 1.0, n)
    spiked = SpikedUniform(1.99, 0.01, n)
    for model in (spiked, Isotropic(2.0, n), Explicit(lam), Explicit(lam, basis)):
        assert sample_design("gaussian", m, n, model, 7).flags.c_contiguous, model.kind
    # the shipped model keeps the F layout of the transposed draw: no copy
    z = np.random.default_rng(8).standard_normal((m, n))
    assert spiked.apply(np.sqrt, z.T).flags.f_contiguous


def test_sample_noise_scaling_and_zero():
    xi = sample_noise("gaussian", 100000, 2.5, 6)
    assert float(np.mean(xi * xi)) == pytest.approx(2.5, rel=0.03)
    zero = sample_noise("scaled_t10", 50, 0.0, 6)
    np.testing.assert_array_equal(zero, np.zeros(50))
    with pytest.raises(InputError):
        sample_noise("gaussian", 10, -1.0, 6)


def test_stream_role_separation():
    a = stream(1, 0, "design").random(4)
    b = stream(1, 0, "noise").random(4)
    c = stream(1, 1, "design").random(4)
    d = stream(1, 0, "design", ctx=1).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    np.testing.assert_array_equal(a, stream(1, 0, "design").random(4))
    with pytest.raises(InputError):
        stream(1, 0, "mystery")


def test_seq_model_noiseless_shrinkage():
    model = Isotropic(1.0, 16)
    mu0 = sample_signal("sphere", 16, 2)
    y, mu_hat = seq_model_sample(model, mu0, 0.0, 1.0, 7)
    np.testing.assert_allclose(mu_hat, mu0.coords / 2.0, rtol=1e-13)
    np.testing.assert_allclose(y, mu0.coords, rtol=1e-13)


def test_seq_model_normal_equations():
    model = SpikedUniform(1.5, 0.2, 12)
    mu0 = sample_signal("sphere", 12, 3)
    tau = 0.8
    y, mu_hat = seq_model_sample(model, mu0, 1.3, tau, 8)
    # (Sigma + tau I) mu_hat = Sigma^{1/2} y
    lhs = model.apply(lambda lam: lam + tau, mu_hat)
    rhs = model.apply(np.sqrt, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_seq_model_estimation_error_mean():
    model = Isotropic(1.0, 50)
    mu0 = sample_signal("sphere", 50, 4)
    config = ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    params = solve_effective(config)
    gamma = np.sqrt(params.gamma_star_sq)
    tau = params.tau_star
    expected = tau * tau * quad_form(model, mu0, tau, 1, 0) + (
        params.gamma_star_sq * trace_functional(model, tau, 2, 1)
    )
    errs = []
    for rep in range(4000):
        _, mu_hat = seq_model_sample(model, mu0, gamma, tau, stream(11, rep, "seq"))
        errs.append(float(np.sum((mu_hat - mu0.coords) ** 2)))
    assert float(np.mean(errs)) == pytest.approx(expected, rel=0.02)


def test_spiked_weight_paths_at_n_1():
    # at n = 1 the factory's model is Isotropic(a + b), whose weight is its one entry
    model = spiked_uniform(2.0, 0.5, 1)
    assert model == Isotropic(2.5, 1)
    mu0 = SignalVector([1.0])
    params = solve_effective(
        ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    )
    weight = np.array([2.0])
    plain = lq_gamma_diag(None, model, params)
    assert lq_gamma_diag(weight, model, params)[0] == 4.0 * plain[0]
    gamma, tau = float(np.sqrt(params.gamma_tilde_sq)), params.tau_star
    unweighted = seq_model_lq_mc(2.0, None, model, mu0, gamma, tau, reps=100, seed=3)
    weighted = seq_model_lq_mc(2.0, weight, model, mu0, gamma, tau, reps=100, seed=3)
    assert weighted == (2.0 * unweighted[0], 2.0 * unweighted[1])


def test_seq_model_lq_mc_deterministic_at_zero_gamma():
    model = Isotropic(1.0, 30)
    mu0 = sample_signal("sphere", 30, 5)
    mean, se = seq_model_lq_mc(2.0, None, model, mu0, 0.0, 1.0, reps=100, seed=1)
    # gamma = 0 collapses to the deterministic bias norm ||mu0/2 - mu0||
    assert mean == pytest.approx(0.5 * mu0.norm, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InputError):
        seq_model_lq_mc(2.0, None, model, mu0, 1.0, 1.0, reps=50, seed=1)


def _lq_mc_norms(q, model, mu0, gamma, tau, reps, seed, norm):
    """norm(|mu_hat - mu0|, q) for each rep's draw of seq_model_lq_mc."""
    return np.array([
        norm(np.abs(seq_model_sample(model, mu0, gamma, tau, stream(seed, rep, "seq", 0))[1]
                    - mu0.coords), q)
        for rep in range(reps)
    ])


def _lq_mc_problem():
    model = SpikedUniform(1.99, 0.01, 400)
    mu0 = sample_signal("sphere", 400, 1)
    params = solve_effective(
        ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    )
    return model, mu0, float(np.sqrt(params.gamma_tilde_sq)), params.tau_star


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_seq_model_lq_mc_scaled_sum_matches_the_plain_sum(q):
    # each rep's norm is summed scaled by max |d|; on ordinary inputs the
    # plain power sum cannot underflow and the two agree to rounding (the
    # lq --mc-reps cells on configs/problem.json moved by at most 6.8e-16)
    model, mu0, gamma, tau = _lq_mc_problem()
    mean, se = seq_model_lq_mc(q, None, model, mu0, gamma, tau, reps=100, seed=5)
    plain = _lq_mc_norms(q, model, mu0, gamma, tau, 100, 5,
                         lambda d, q: float(np.sum(d**q)) ** (1.0 / q))
    assert mean == pytest.approx(float(np.mean(plain)), rel=2e-15)
    assert se == pytest.approx(float(np.std(plain, ddof=1) / 10.0), rel=2e-13)


@pytest.mark.filterwarnings("error")
def test_seq_model_lq_mc_at_large_q_does_not_underflow():
    # the plain sum of |d_j|^1000 underflows to 0 and used to report a mean
    # and standard error of exactly 0; max |d| <= ||d||_q <= n^(1/q) max |d|
    q = 1000.0
    model, mu0, gamma, tau = _lq_mc_problem()
    mean, se = seq_model_lq_mc(q, None, model, mu0, gamma, tau, reps=100, seed=5)
    peak = _lq_mc_norms(q, model, mu0, gamma, tau, 100, 5, lambda d, q: float(d.max()))
    assert float(peak.mean()) <= mean <= 400.0 ** (1.0 / q) * float(peak.mean())
    assert se > 0.0
    # a log-sum-exp route to the same norms
    log_route = _lq_mc_norms(
        q, model, mu0, gamma, tau, 100, 5,
        lambda d, q: math.exp(float(scipy.special.logsumexp(q * np.log(d))) / q),
    )
    assert mean == pytest.approx(float(np.mean(log_route)), rel=1e-12)


def _bad_weight(case: str, n: int) -> np.ndarray:
    if case == "short":
        return np.ones(n - 1)
    if case == "long":
        return np.ones(n + 1)
    if case == "dense":
        return np.eye(n + 1)
    if case == "huge dense":
        return np.eye(n) * 1e200
    if case == "bulk":
        return np.arange(1.0, n + 1.0)
    w = np.ones(n)
    w[1] = {"nan": math.nan, "inf": math.inf, "negative": -1.0, "huge": 1e200}[case]
    return w


_LQ_MODELS = {
    "isotropic": Isotropic(1.0, 6),
    "spiked": SpikedUniform(1.99, 0.01, 6),
    "explicit": Explicit(np.linspace(3.0, 0.5, 6)),
}
LQ_MODELS = pytest.mark.parametrize("model", list(_LQ_MODELS.values()), ids=list(_LQ_MODELS))
_BAD_WEIGHTS = ["short", "long", "dense", "nan", "inf", "negative", "huge", "huge dense"]


@pytest.mark.parametrize(
    "model, case",
    [pytest.param(model, case, id=f"{name}-{case}")
     for name, model in _LQ_MODELS.items() for case in _BAD_WEIGHTS]
    # only the spiked bulk eigenbasis is arbitrary
    + [pytest.param(_LQ_MODELS["spiked"], "bulk", id="spiked-bulk")],
)
def test_lq_weights_have_one_check(model, case, monkeypatch):
    # the closed form and the Monte Carlo refuse a bad weight with one
    # message, the Monte Carlo before any draw
    mu0 = sample_signal("sphere", model.n, 1)
    params = solve_effective(
        ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    )
    a = _bad_weight(case, model.n)
    with pytest.raises(InputError) as closed_form:
        lq_gamma_diag(a, model, params)

    def no_draw(*args):
        raise AssertionError("a stream was drawn before the weight was checked")

    monkeypatch.setattr(simlab, "stream", no_draw)
    with pytest.raises(InputError) as monte_carlo:
        seq_model_lq_mc(2.0, a, model, mu0, 1.0, params.tau_star, reps=100, seed=0)
    assert str(monte_carlo.value) == str(closed_form.value)
    assert "weight" in str(closed_form.value)
    if case.startswith("huge"):
        # a * a used to overflow with a RuntimeWarning, and lq_risk returned nan
        assert str(closed_form.value) == (
            "squared weight entries must lie in [0, 1e+60], got inf"
        )
    if case == "bulk":
        assert str(closed_form.value) == (
            "eigenbasis weight must be constant on the spiked_uniform bulk block, "
            "got values from 2.0 to 6.0"
        )


@LQ_MODELS
def test_lq_mc_eigenbasis_weight_is_its_dense_matrix(model):
    # one seed, so the two weights see the same draws
    n = model.n
    mu0 = sample_signal("sphere", n, 1)
    params = solve_effective(
        ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    )
    w = np.linspace(2.0, 0.5, n)
    if isinstance(model, SpikedUniform):
        w[1:] = 0.5
        spike = np.full((n, n), 1.0 / n)
        dense = w[0] * spike + w[1] * (np.eye(n) - spike)
    else:
        dense = np.diag(w)
    for q in (1.0, 2.0, 5.0):
        via_vector = seq_model_lq_mc(q, w, model, mu0, 1.0, params.tau_star, reps=100, seed=3)
        via_dense = seq_model_lq_mc(q, dense, model, mu0, 1.0, params.tau_star, reps=100, seed=3)
        np.testing.assert_allclose(via_vector, via_dense, rtol=1e-12, atol=0.0)


@LQ_MODELS
@pytest.mark.filterwarnings("error")
def test_lq_weight_band_edge_is_finite(model):
    # the largest entry whose square stays in SCALE_RANGE
    edge = 1e30
    while edge * edge > 1e60:
        edge = np.nextafter(edge, 0.0)
    mu0 = sample_signal("sphere", model.n, 1)
    params = solve_effective(
        ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    )
    for a in (np.full(model.n, edge), np.eye(model.n) * edge):
        diag = lq_gamma_diag(a, model, params)
        assert np.isfinite(diag).all() and math.isfinite(lq_risk(2.0, diag, model.n))
        mean, se = seq_model_lq_mc(2.0, a, model, mu0, 1.0, params.tau_star, reps=100, seed=0)
        assert math.isfinite(mean) and math.isfinite(se)
        with pytest.raises(InputError, match="squared weight entries"):
            lq_gamma_diag(a * (1.0 + 2.0**-52), model, params)


def test_map_reps_runs_at_most_one_worker_per_rep(monkeypatch):
    # pool.map submits every rep at once, and each submit may start a thread
    pools = []

    class CountingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simlab, "ThreadPoolExecutor", CountingPool)
    for reps, threads in ((3, 8), (5, 2), (1, 4), (4, 1)):
        results, failed = simlab._map_reps(reps, threads, lambda rep: rep * rep)
        assert results == [(rep, rep * rep) for rep in range(reps)] and failed == ()
    assert pools == [3, 2]


def test_a_rep_with_a_singular_gram_matrix_is_skipped(monkeypatch):
    # equal rows make rep 1's X X^T singular; its first eta = 0 fit raises
    # IllConditioned and the rep is skipped
    sample, calls = simlab.sample_design, []

    def design(*args):
        x = sample(*args)
        calls.append(x)
        if len(calls) == 2:
            x[1] = x[0]
        return x

    monkeypatch.setattr(simlab, "sample_design", design)
    summary = run_risk_experiment(small_config(m=4, n=8, reps=100))
    assert summary.failed == (1,)


def test_run_risk_experiment_structure_and_determinism():
    config = small_config()
    first = run_risk_experiment(config)
    second = run_risk_experiment(config)
    threaded = run_risk_experiment(small_config(threads=3))
    assert first.failed == ()
    for kind in ("pred", "est", "ins", "res"):
        np.testing.assert_array_equal(first.emp_mean[kind], second.emp_mean[kind])
        np.testing.assert_array_equal(first.emp_mean[kind], threaded.emp_mean[kind])
        assert first.emp_mean[kind].shape == (4,)
        assert np.all(np.isfinite(first.theoretical[kind]))
    # res risk needs no ground truth and vanishes at interpolation
    assert first.emp_mean["res"][0] == pytest.approx(0.0, abs=1e-18)


def test_run_risk_experiment_overlay_is_risk_curves():
    config = small_config(model_spec={"kind": "spiked_uniform", "a": 1.5, "b": 0.5})
    out = run_risk_experiment(config)
    model = build_model(config.model_spec, config.n)
    mu0 = sample_signal("sphere", config.n, stream(config.master_seed, 0, "signal", 0))
    theory = ProblemConfig(
        phi=0.5, eta=0.0, sigma_sq=config.sigma_sq, model=model, mu0=mu0
    )
    curves = risk_curves(theory, list(RiskKind), config.etas)
    for kind, curve in curves.items():
        np.testing.assert_array_equal(out.theoretical[kind.value], curve.theoretical)
        np.testing.assert_array_equal(out.rmt[kind.value], curve.rmt)


def test_redraw_signal_gives_each_later_rep_its_own_signal(monkeypatch):
    # rep 0 and the overlays keep the shared rep-0 signal; rep r > 0 draws
    # from its own (r, "signal", 0) stream
    seen = []
    curves = simlab._empirical_curves

    def recording(data, etas, kinds):
        seen.append(data.mu0.coords.copy())
        return curves(data, etas, kinds)

    monkeypatch.setattr(simlab, "_empirical_curves", recording)
    redrawn = run_risk_experiment(small_config(reps=3, redraw_signal=True))
    assert len(seen) == 3
    for rep, coords in enumerate(seen):
        own = sample_signal("sphere", 80, stream(3, rep, "signal", 0))
        np.testing.assert_array_equal(coords, own.coords)
    seen.clear()
    shared = run_risk_experiment(small_config(reps=3))
    for coords in seen:
        np.testing.assert_array_equal(coords, seen[0])
    for kind in RiskKind:
        np.testing.assert_array_equal(redrawn.theoretical[kind], shared.theoretical[kind])
        np.testing.assert_array_equal(redrawn.rmt[kind], shared.rmt[kind])
    assert not np.array_equal(redrawn.emp_mean["est"], shared.emp_mean["est"])


def test_run_risk_experiment_tracks_theory_loosely():
    config = small_config(m=60, n=120, reps=30, threads=2)
    out = run_risk_experiment(config)
    for kind in ("pred", "est", "ins"):
        rel = np.abs(out.emp_mean[kind] - out.theoretical[kind]) / out.theoretical[kind]
        assert rel.max() < 0.25


def test_run_argmin_experiment_noiseless_is_degenerate():
    config = small_config(sigma_sq=0.0, reps=4)
    out = run_argmin_experiment(config)
    assert out.eta_star == 0.0
    assert out.rep_indices == (0, 1, 2, 3)
    for kind in ("pred", "est", "ins"):
        np.testing.assert_array_equal(out.eta_hat[kind] - out.eta_star, 0.0)
    again = run_argmin_experiment(config)
    for kind in ("pred", "est", "ins"):
        np.testing.assert_array_equal(out.eta_hat[kind], again.eta_hat[kind])


def test_run_argmin_experiment_reports_grid_points():
    # eta_hat - eta_star + eta_star is not always eta_hat: at eta_star = 0.3
    # the grid point 0.121875 came back as 0.12187500000000001
    config = small_config(sigma_sq=0.3, etas=tuple(np.linspace(0.0, 1.5, 161)), reps=10)
    out = run_argmin_experiment(config)
    for kind in ("pred", "est", "ins"):
        assert out.eta_hat[kind].shape == (10,)
        assert set(out.eta_hat[kind].tolist()) <= set(config.etas)
        np.testing.assert_array_equal(out.eta_hat[kind] - out.eta_star, out.eta_hat[kind] - 0.3)


def test_experiment_config_validation():
    with pytest.raises(InputError):
        small_config(n=None)  # neither n nor phi_grid
    with pytest.raises(InputError):
        small_config(n=40)  # eta grid includes 0 at n = m
    with pytest.raises(InputError):
        small_config(etas=(0.5, 0.5))
    for etas in ((0.5, np.nan), (0.5, np.inf), (0.5, 1e61), (-0.1, 0.5), ()):
        with pytest.raises(InputError, match="'eta_grid'"):
            small_config(etas=etas)
    with pytest.raises(InputError):
        small_config(design_dist="uniform")
    with pytest.raises(InputError):
        small_config(alpha=0.0)
    with pytest.raises(InputError):
        small_config(reps=0)
    # sigma_sq, the signal radius and the phi grid are held to their bands
    # in errors.py; NaN used to pass the sigma_sq < 0 and radius <= 0 tests
    for overrides, message in (
        ({"sigma_sq": np.nan}, "'sigma_sq' must lie in [0, 1e+60], got nan"),
        ({"sigma_sq": 1e300}, "'sigma_sq' must lie in [0, 1e+60], got 1e+300"),
        ({"signal_radius": np.nan}, "signal radius must be positive"),
        ({"signal_radius": -1.0}, "signal radius must be positive"),
        ({"signal_radius": 1e200}, "squared norm of 'signal' must lie in [0, 1e+60], got inf"),
        # radius^2 underflows to 0, and the oracle penalty sigma_sq / radius^2
        # that fig1 reports would be inf
        ({"signal_radius": 1e-200},
         "eta* = sigma_sq / radius^2 must be 0 or lie in [1e-60, 1e+60], got inf"),
        ({"n": None, "phi_grid": (0.5, np.nan)}, "'phi_grid' must lie in [1e-08, 1e+08], got nan"),
        ({"n": None, "phi_grid": (1e300,)}, "'phi_grid' must lie in [1e-08, 1e+08], got 1e+300"),
        ({"n": None, "phi_grid": (100.0,)}, "phi = 100.0 leaves no signal dimension"),
        ({"n": None, "phi_grid": ()}, "phi grid must be nonempty"),
    ):
        with pytest.raises(InputError, match=re.escape(message)):
            small_config(**overrides)
    # phi sweeps accept 0 in the grid; shapes without an interpolator drop it
    sweep = small_config(n=None, phi_grid=(0.5,), etas=(0.0, 1.0))
    assert sweep.phi_grid == (0.5,)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"reps": 2.5}, "'reps'"),
        ({"m": 10.5}, "'m'"),
        ({"k": 2.5}, "'k'"),
        ({"threads": 1.5}, "'threads'"),
        ({"redraw_signal": "no"}, "'redraw_signal'"),
        ({"redraw_signal": 1}, "'redraw_signal'"),
    ],
)
def test_experiment_config_casts_direct_construction(overrides, key):
    # built directly, reps = 2.5 used to end in a raw TypeError inside the
    # runner and redraw_signal = "no" was silently truthy
    with pytest.raises(InputError, match=f"^malformed {re.escape(key)}: "):
        small_config(**overrides)


def test_experiment_config_direct_values_take_their_json_types():
    config = small_config(reps=6.0, m=40.0, etas=[0.5, 1.0], signal_radius=2)
    assert type(config.reps) is int and type(config.m) is int
    assert config.etas == (0.5, 1.0) and type(config.signal_radius) is float


def test_experiment_config_json_round_trip():
    config = small_config()
    back = ExperimentConfig.from_json(config.to_json())
    assert back.to_json() == config.to_json()
    assert back.etas == config.etas and back.master_seed == config.master_seed
    with pytest.raises(InputError):
        ExperimentConfig.from_json({"m": 4, "model": {}, "eta_grid": [0.5], "bogus": 1})
    with pytest.raises(InputError):
        ExperimentConfig.from_json({"m": 4, "model": {}})
    with pytest.raises(InputError):
        ExperimentConfig.from_json(
            {
                "m": 4,
                "n": 8,
                "model": {"kind": "isotropic", "scale": 1.0},
                "eta_grid": [0.5],
                "signal": {"mode": "sphere", "spin": 3},
            }
        )
    base = {
        "m": 4,
        "n": 8,
        "model": {"kind": "isotropic", "scale": 1.0},
        "eta_grid": [0.5],
    }
    with pytest.raises(InputError, match=r"unknown signal keys: \['radiuss'\]$"):
        ExperimentConfig.from_json({**base, "signal": {"mode": "sphere", "radiuss": 1}})
    with pytest.raises(
        InputError, match="^malformed 'signal': expected a JSON object, got 'sphere'$"
    ):
        ExperimentConfig.from_json({**base, "signal": "sphere"})
    for flag in (True, False):
        assert ExperimentConfig.from_json({**base, "redraw_signal": flag}).redraw_signal is flag
    assert ExperimentConfig.from_json(base).redraw_signal is False


def test_build_model_fills_dimension():
    model = build_model({"kind": "spiked_uniform", "a": 1.99, "b": 0.01}, 50)
    assert isinstance(model, SpikedUniform)
    assert model.n == 50
    iso = build_model({"kind": "isotropic", "scale": 2.0}, 10)
    assert iso.n == 10


def test_distributional_check_self_test_is_pure_noise():
    config = small_config(etas=(0.3, 0.9), reps=10)
    res = distributional_check(config, seq_reps=200)
    assert set(res.noise_floor) == set(res.table) == {
        "l1_scaled", "l2_dist", "proj_first", "proj_mean"}
    for name in res.table:
        sd = np.asarray(res.seq_se[name]) * np.sqrt(200)
        se_diff = sd * np.sqrt(1.0 / 10 + 1.0 / 200)
        assert np.all(np.asarray(res.noise_floor[name]) <= 3.0 * se_diff)


def _dist_check_config() -> ExperimentConfig:
    return small_config(m=12, n=24, model_spec={"kind": "spiked_uniform", "a": 1.5, "b": 0.2},
                        etas=(0.0, 0.4, 1.2), reps=3)


def test_distributional_check_bank_is_the_sequence_model_at_every_eta(monkeypatch):
    # one g per bank rep, reused at every eta: each fit is the one
    # seq_model_sample draws from that rep's own stream, so the etas share
    # their random numbers
    config = _dist_check_config()
    model, etas = build_model(config.model_spec, config.n), np.asarray(config.etas)
    mu0 = sample_signal("sphere", config.n, stream(config.master_seed, 0, "signal"))
    base = ProblemConfig(phi=config.m / config.n, eta=0.0, sigma_sq=1.0, model=model, mu0=mu0)
    params = solve_grid(base, etas)
    fits = []
    real_stats = simlab._dist_stats

    def record(block, center):
        fits.append(block)
        return real_stats(block, center)

    monkeypatch.setattr(simlab, "_dist_stats", record)
    distributional_check(config, seq_reps=5)
    # the 5 bank reps, then the 3 noise-floor draws, then the 3 data reps
    assert len(fits) == 5 + 3 + 3
    for s, block in enumerate(fits[:8]):
        for k, p in enumerate(params):
            want = seq_model_sample(model, mu0, np.sqrt(p.gamma_star_sq), p.tau_star,
                                    stream(config.master_seed, s, "seq"))[1]
            assert np.array_equal(block[k], want), (s, k)


def test_distributional_check_draws_one_seq_stream_per_bank_rep(monkeypatch):
    roles = []
    real_stream = simlab.stream

    def counted(seed, rep, role, ctx=0):
        roles.append(role)
        return real_stream(seed, rep, role, ctx)

    monkeypatch.setattr(simlab, "stream", counted)
    distributional_check(_dist_check_config(), seq_reps=7)
    assert roles.count("seq") == 7 + 3


@pytest.mark.parametrize(
    "m, n, etas",
    [
        (20, 40, (0.0, 0.05, 0.4, 1.5)),  # dual shape, grid through 0
        (40, 20, (0.05, 0.4, 1.5)),  # primal shape
    ],
)
def test_empirical_curves_match_standalone_fits(m, n, etas):
    model = SpikedUniform(1.99, 0.01, n)
    mu0 = sample_signal("sphere", n, 21)
    x = sample_design("scaled_t10", m, n, model, 22)
    y = x @ mu0.coords + sample_noise("scaled_t10", m, 1.0, 23)
    etas = np.asarray(etas)
    kinds = (RiskKind.PRED, RiskKind.EST, RiskKind.INS, RiskKind.RES)
    curves = simlab._empirical_curves(Dataset(x, y, model, mu0), etas, kinds)

    # a separate Dataset, so the reference fits share no factorization
    ref = Dataset(x, y, model, mu0)
    fits = [ridgeless_fit(ref) if eta == 0 else ridge_fit(ref, eta) for eta in etas]
    for kind in kinds:
        expected = np.array([empirical_risk(kind, fit, ref) for fit in fits])
        np.testing.assert_allclose(
            curves[kind], expected, rtol=1e-10, atol=1e-10 * expected.max()
        )


def test_tuning_reps_build_one_dataset_that_kfold_reads(monkeypatch):
    built, kfold_data = [], []
    kfold_objective = regress.kfold_objective

    class CountedDataset(Dataset):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    def recording_kfold(data, grid, folds):
        # the replication's own sample: ground truth attached, X factored
        assert data.mu0 is not None and "sweep" in vars(data)
        kfold_data.append(data)
        return kfold_objective(data, grid, folds)

    monkeypatch.setattr(simlab, "Dataset", CountedDataset)
    # kfold_select, which sim fig2 runs, looks kfold_objective up in regress
    monkeypatch.setattr(regress, "kfold_objective", recording_kfold)
    config = small_config(
        n=None, phi_grid=(0.5, 1.5), etas=(0.0, 0.5, 1.0), reps=3, k=3
    )
    summary = run_tuning_experiment(config)
    assert summary.failed == ()
    assert len(built) == 2 * 3
    assert [id(d) for d in kfold_data] == [id(d) for d in built]


def test_tuning_oracle_signal_spreads_over_an_explicit_spectrum():
    # r e_1 is an eigenvector of an explicit model with no basis, and put the
    # whole signal on the top eigenvalue: oracle_len read 0.78434 here
    lam = np.linspace(3.0, 0.2, 40)
    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 40)))
    oracle = {}
    for name, spec in (("plain", {}), ("basis", {"basis": basis.tolist()})):
        config = small_config(
            m=20, n=None, phi_grid=(0.5,), etas=(0.5, 1.0), reps=2,
            model_spec={"kind": "explicit", "eigenvalues": lam.tolist(), **spec},
        )
        oracle[name] = run_tuning_experiment(config).oracle_len[0]
    assert oracle["plain"] == pytest.approx(0.7321327, abs=1e-7)
    # the signal V 1 / sqrt(n) has the same eigen-masses in every basis V,
    # so only the coordinate's interval scale moves
    scale = {
        name: confidence_intervals(np.zeros(40), 1.0, Explicit(lam, v), 0.05).lengths[0]
        for name, v in (("plain", None), ("basis", basis))
    }
    assert oracle["basis"] / oracle["plain"] == pytest.approx(
        scale["basis"] / scale["plain"], rel=1e-12
    )


def test_tuning_summary_pairs_each_skipped_rep_with_its_phi(monkeypatch):
    map_reps, calls = simlab._map_reps, []

    def skip_rep_1_at_second_phi(reps, threads, worker):
        results, failed = map_reps(reps, threads, worker)
        calls.append(reps)
        if len(calls) == 2:
            return [r for r in results if r[0] != 1], failed + (1,)
        return results, failed

    monkeypatch.setattr(simlab, "_map_reps", skip_rep_1_at_second_phi)
    config = small_config(n=None, phi_grid=(0.5, 1.5), etas=(0.5, 1.0), reps=3, k=3)
    summary = run_tuning_experiment(config)
    assert summary.failed == ((1, 1),)
    assert [len(v) for v in summary.eta_selected["gcv"]] == [3, 2]
