"""Simulation harness: samplers, sequence-model laws, experiment determinism."""

import numpy as np
import pytest

from ridgelab import (
    Dataset,
    ExperimentConfig,
    InputError,
    Isotropic,
    ProblemConfig,
    RiskKind,
    SignalVector,
    SpikedUniform,
    build_model,
    distributional_check,
    empirical_risk,
    quad_form,
    residual_law_sample,
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
    stream,
    trace_functional,
)
from ridgelab import simlab


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


def test_residual_law_norm():
    phi, eta = 0.5, 0.8
    config = ProblemConfig(
        phi=phi,
        eta=eta,
        sigma_sq=1.0,
        model=Isotropic(1.0, 4),
        mu0=SignalVector(np.array([1.0, 0.0, 0.0, 0.0])),
    )
    params = solve_effective(config)
    m = 60
    vals = []
    for rep in range(3000):
        xi = sample_noise("gaussian", m, 1.0, stream(12, rep, "noise"))
        r = residual_law_sample(
            phi, params.tau_star, params.gamma_star_sq, 1.0, eta, xi,
            stream(12, rep, "seq"),
        )
        vals.append(float(r @ r))
    res_theory = eta * eta * params.gamma_star_sq / params.tau_star**2
    assert float(np.mean(vals)) == pytest.approx(res_theory, rel=0.05)

    zero = residual_law_sample(phi, 1.0, 5.0, 1.0, 0.0, np.ones(m), 0)
    np.testing.assert_array_equal(zero, np.zeros(m))


def test_seq_model_lq_mc_deterministic_at_zero_gamma():
    model = Isotropic(1.0, 30)
    mu0 = sample_signal("sphere", 30, 5)
    mean, se = seq_model_lq_mc(2.0, None, model, mu0, 0.0, 1.0, reps=100, seed=1)
    # gamma = 0 collapses to the deterministic bias norm ||mu0/2 - mu0||
    assert mean == pytest.approx(0.5 * mu0.norm, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InputError):
        seq_model_lq_mc(2.0, None, model, mu0, 1.0, 1.0, reps=50, seed=1)


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
    out = run_risk_experiment(config, ctx=2)
    model = build_model(config.model_spec, config.n)
    mu0 = sample_signal("sphere", config.n, stream(config.master_seed, 0, "signal", 2))
    theory = ProblemConfig(
        phi=0.5, eta=0.0, sigma_sq=config.sigma_sq, model=model, mu0=mu0
    )
    curves = risk_curves(theory, list(RiskKind), config.etas)
    for kind, curve in curves.items():
        np.testing.assert_array_equal(out.theoretical[kind.value], curve.theoretical)
        np.testing.assert_array_equal(out.rmt[kind.value], curve.rmt)


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
        np.testing.assert_array_equal(out.deviations[kind], 0.0)
        assert out.quartiles[kind][0] == 0.0
    again = run_argmin_experiment(config)
    for kind in ("pred", "est", "ins"):
        np.testing.assert_array_equal(out.deviations[kind], again.deviations[kind])


def test_experiment_config_validation():
    with pytest.raises(InputError):
        small_config(n=None)  # neither n nor phi_grid
    with pytest.raises(InputError):
        small_config(n=40)  # eta grid includes 0 at n = m
    with pytest.raises(InputError):
        small_config(etas=(0.5, 0.5))
    with pytest.raises(InputError):
        small_config(design_dist="uniform")
    with pytest.raises(InputError):
        small_config(alpha=0.0)
    with pytest.raises(InputError):
        small_config(reps=0)
    # phi sweeps accept 0 in the grid; shapes without an interpolator drop it
    sweep = small_config(n=None, phi_grid=(0.5,), etas=(0.0, 1.0))
    assert sweep.phi_grid == (0.5,)


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
    with pytest.raises(InputError, match="signal must be a JSON object"):
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
    res = distributional_check(config, data_side="seq", seq_reps=200)
    for name in res.stat_names:
        sd = np.asarray(res.seq_se[name]) * np.sqrt(200)
        se_diff = sd * np.sqrt(1.0 / 10 + 1.0 / 200)
        assert np.all(np.asarray(res.table[name]) <= 3.0 * se_diff)
    with pytest.raises(InputError):
        distributional_check(config, test_fns=("l1_scaled", "mystery"))
    with pytest.raises(InputError):
        distributional_check(config, data_side="both")


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
    kfold_objective = simlab.kfold_objective

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
    monkeypatch.setattr(simlab, "kfold_objective", recording_kfold)
    config = small_config(
        n=None, phi_grid=(0.5, 1.5), etas=(0.0, 0.5, 1.0), reps=3, k=3
    )
    summary = run_tuning_experiment(config)
    assert summary.failed == ()
    assert len(built) == 2 * 3
    assert [id(d) for d in kfold_data] == [id(d) for d in built]


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
