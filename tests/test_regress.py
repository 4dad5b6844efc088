"""Data-level estimators: fits, effective-parameter estimates, tuning, intervals."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridgelab import regress
from ridgelab import (
    CIReport,
    Dataset,
    GramSweep,
    IllConditioned,
    InputError,
    Isotropic,
    MissingGroundTruth,
    RiskKind,
    SignalVector,
    SpikedUniform,
    WrongRegime,
    build_model,
    confidence_intervals,
    coverage,
    debias,
    df_hat,
    empirical_risk,
    gamma_hat,
    gcv_select,
    kfold_folds,
    kfold_objective,
    kfold_select,
    ridge_fit,
    ridgeless_fit,
    sample_design,
    sample_noise,
    sample_signal,
    sigma_hat_sq,
    sigma_quad,
    stream,
    tau_hat,
)

Z_05 = 1.9599639845400542  # two-sided normal quantile at alpha = 0.05
Z_32 = 0.9944578832097532


def toy_dataset(m: int, n: int, seed: int = 0, sigma: float = 0.5) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    mu0 = SignalVector(rng.standard_normal(n) / np.sqrt(n))
    xi = sigma * rng.standard_normal(m)
    return Dataset(x=x, y=x @ mu0.coords + xi, model=Isotropic(1.0, n), mu0=mu0, xi=xi)


def test_ridge_scalar_example():
    data = Dataset(
        x=np.array([[2.0]]), y=np.array([4.0]), model=Isotropic(1.0, 1)
    )
    fit = ridge_fit(data, 1.0)
    assert fit.mu_hat[0] == pytest.approx(1.6, rel=1e-14)
    assert fit.r_hat[0] == pytest.approx(0.8, rel=1e-14)
    with pytest.raises(InputError):
        ridge_fit(data, 0.0)


def test_ridge_matches_dense_solve_both_regimes():
    for m, n in [(30, 20), (20, 40)]:
        data = toy_dataset(m, n, seed=m)
        eta = 0.7
        fit = ridge_fit(data, eta)
        dense = np.linalg.solve(
            data.x.T @ data.x / n + eta * np.eye(n), data.x.T @ data.y / n
        )
        np.testing.assert_allclose(fit.mu_hat, dense, rtol=1e-10, atol=1e-12)


def test_ridgeless_interpolates_with_minimum_norm():
    data = Dataset(
        x=np.array([[1.0, 1.0]]), y=np.array([2.0]), model=Isotropic(1.0, 2)
    )
    fit = ridgeless_fit(data)
    np.testing.assert_allclose(fit.mu_hat, [1.0, 1.0], rtol=1e-14)

    data = toy_dataset(8, 20, seed=1)
    fit = ridgeless_fit(data)
    np.testing.assert_allclose(data.x @ fit.mu_hat, data.y, rtol=1e-9)
    # minimum norm: the solution lies in the row space of X
    proj = data.x.T @ np.linalg.solve(data.x @ data.x.T, data.x @ fit.mu_hat)
    np.testing.assert_allclose(fit.mu_hat, proj, rtol=1e-9)
    with pytest.raises(WrongRegime):
        ridgeless_fit(toy_dataset(20, 8))


def test_ridge_limit_recovers_ridgeless():
    data = toy_dataset(10, 25, seed=2)
    interp = ridgeless_fit(data)
    near = ridge_fit(data, 1e-9)
    np.testing.assert_allclose(near.mu_hat, interp.mu_hat, atol=1e-6)


def test_empirical_risks_match_brute_force():
    data = toy_dataset(12, 8, seed=3)
    fit = ridge_fit(data, 0.4)
    diff = fit.mu_hat - data.mu0.coords
    assert empirical_risk(RiskKind.EST, fit, data) == pytest.approx(
        float(diff @ diff), rel=1e-12
    )
    assert empirical_risk(RiskKind.PRED, fit, data) == pytest.approx(
        float(diff @ diff), rel=1e-12
    )  # isotropic model
    assert empirical_risk(RiskKind.INS, fit, data) == pytest.approx(
        float(np.sum((data.x @ diff) ** 2)) / data.n, rel=1e-12
    )
    assert empirical_risk(RiskKind.RES, fit, data) == pytest.approx(
        float(np.sum((data.y - data.x @ fit.mu_hat) ** 2)) / data.n, rel=1e-12
    )
    bare = Dataset(x=data.x, y=data.y, model=data.model)
    assert empirical_risk(RiskKind.RES, fit, bare) >= 0.0
    with pytest.raises(MissingGroundTruth):
        empirical_risk(RiskKind.EST, fit, bare)


def test_df_hat_examples():
    data = Dataset(
        x=np.sqrt(2.0) * np.eye(2), y=np.zeros(2), model=Isotropic(1.0, 2)
    )
    assert df_hat(data, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert df_hat(data, 1e9) == pytest.approx(0.0, abs=1e-6)
    over = toy_dataset(3, 6)
    assert df_hat(over, 0.0) == pytest.approx(3.0)
    with pytest.raises(WrongRegime):
        df_hat(toy_dataset(6, 3), 0.0)
    with pytest.raises(InputError):
        df_hat(over, -0.5)

    # dense reference tr((X^T X/m + (eta/phi) I)^{-1} X^T X/m) on both routes
    for m, n in [(11, 27), (27, 11)]:
        data = toy_dataset(m, n, seed=m)
        cov = data.x.T @ data.x / m
        for eta in (0.05, 0.6):
            dense = np.trace(np.linalg.solve(cov + eta / data.phi * np.eye(n), cov))
            assert df_hat(data, eta) == pytest.approx(dense, rel=1e-11)


def test_tau_hat_examples():
    data = Dataset(
        x=np.sqrt(2.0) * np.eye(2), y=np.zeros(2), model=Isotropic(1.0, 2)
    )
    assert tau_hat(data, 1.0) == pytest.approx(2.0, rel=1e-14)

    # zero design: tau = eta / phi exactly
    zero = Dataset(x=np.zeros((3, 6)), y=np.zeros(3), model=Isotropic(1.0, 6))
    assert tau_hat(zero, 0.9) == pytest.approx(0.9 * 6 / 3, rel=1e-14)

    # dual (m < n) and primal (m > n) routes against dense algebra
    eta = 0.37
    for m, n in [(13, 29), (29, 13)]:
        data = toy_dataset(m, n, seed=4)
        direct = 1.0 / np.trace(
            np.linalg.inv(data.x @ data.x.T + eta * data.n * np.eye(data.m))
        )
        assert tau_hat(data, eta) == pytest.approx(direct, rel=1e-12)


def test_tau_hat_at_zero_needs_invertible_gram():
    # m > n: X X^T is singular, so tau_hat(0) has no finite value
    with pytest.raises(IllConditioned):
        tau_hat(toy_dataset(29, 13), 0.0)
    rank_one = Dataset(x=np.ones((3, 6)), y=np.ones(3), model=Isotropic(1.0, 6))
    with pytest.raises(IllConditioned):
        tau_hat(rank_one, 0.0)
    with pytest.raises(IllConditioned):
        ridgeless_fit(rank_one)
    data = toy_dataset(13, 29, seed=4)
    direct = 1.0 / np.trace(np.linalg.inv(data.x @ data.x.T))
    assert tau_hat(data, 0.0) == pytest.approx(direct, rel=1e-11)


@pytest.mark.parametrize(
    "estimator", [tau_hat, gamma_hat, df_hat, ridge_fit, regress.sweep_ridge_fit]
)
@pytest.mark.parametrize("eta", [float("nan"), float("inf"), 1e308, -1.0, 1e-300])
def test_estimators_refuse_an_eta_out_of_band(estimator, eta):
    with pytest.raises(InputError, match="eta must be 0 or lie in"):
        estimator(toy_dataset(8, 12), eta)


def test_gamma_hat_branches():
    # gamma_hat reads data.sweep; the oracles are a dense solve on X X^T and
    # the residual of ridge_fit's Cholesky route
    over = toy_dataset(10, 30, seed=5)
    fit = ridge_fit(over, 0.5)
    g = gamma_hat(over, 0.5)
    t = tau_hat(over, 0.5)
    gram = over.x @ over.x.T / over.n
    v = np.linalg.solve(gram, over.x @ fit.mu_hat)
    assert g == pytest.approx(
        t / np.sqrt(over.n) * float(np.linalg.norm(v)), rel=1e-12
    )

    under = toy_dataset(30, 10, seed=6)
    fit = ridge_fit(under, 0.5)
    g = gamma_hat(under, 0.5)
    t = tau_hat(under, 0.5)
    resid = under.y - under.x @ fit.mu_hat
    assert g == pytest.approx(
        t / np.sqrt(under.n) * float(np.linalg.norm(resid)) / 0.5, rel=1e-12
    )
    # m > n at eta = 0: gamma_hat is an input error, tau_hat ill-conditioned
    with pytest.raises(InputError):
        gamma_hat(under, 0.0)
    with pytest.raises(InputError):
        under.sweep.gamma_hat(0.0)
    with pytest.raises(IllConditioned):
        tau_hat(under, 0.0)
    for data in (over, under):
        with pytest.raises(InputError):
            gamma_hat(data, -0.1)

    # a zero response has a zero fit and a zero effective-noise estimate
    null = Dataset(x=over.x, y=np.zeros(over.m), model=over.model)
    assert gamma_hat(null, 1.0) == 0.0


def test_gamma_hat_square_boundary_uses_dual_branch():
    # at m = n both branches are defined and must agree for eta > 0
    data = toy_dataset(12, 12, seed=7)
    fit = ridge_fit(data, 0.8)
    g = gamma_hat(data, 0.8)
    t = tau_hat(data, 0.8)
    resid = data.y - data.x @ fit.mu_hat
    manual_under = t / np.sqrt(data.n) * float(np.linalg.norm(resid)) / 0.8
    assert g == pytest.approx(manual_under, rel=1e-9)


def test_sweep_ridge_fit_matches_ridge_fit(monkeypatch):
    # the two routes to one fit: the dataset's eigendecomposition and a
    # Cholesky solve on the smaller Gram matrix
    for m, n in [(14, 40), (40, 14)]:
        data = toy_dataset(m, n, seed=m + n)
        for eta in (1e-3, 0.5, 4.0):
            fit, ref = regress.sweep_ridge_fit(data, eta), ridge_fit(data, eta)
            assert fit.eta == ref.eta
            np.testing.assert_allclose(fit.mu_hat, ref.mu_hat, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(fit.r_hat, ref.r_hat, rtol=1e-10, atol=1e-12)
    with pytest.raises(InputError):
        regress.sweep_ridge_fit(data, 0.0)
    # a solution off the normal equations fails the KKT check
    monkeypatch.setattr(GramSweep, "mu_hat", lambda self, eta: np.ones(self.n))
    with pytest.raises(IllConditioned):
        regress.sweep_ridge_fit(toy_dataset(14, 40), 0.5)


def test_gram_sweep_matches_direct_fits():
    for m, n in [(14, 40), (40, 14)]:
        data = toy_dataset(m, n, seed=m + n)
        sweep = GramSweep(data.x, data.y)
        for eta in (0.2, 0.9, 1.5):
            fit = ridge_fit(data, eta)
            np.testing.assert_allclose(sweep.mu_hat(eta), fit.mu_hat, atol=1e-10)
            np.testing.assert_allclose(
                sweep.resid(eta), data.y - data.x @ fit.mu_hat, atol=1e-10
            )
            assert sweep.tau_hat(eta) == pytest.approx(tau_hat(data, eta), rel=1e-11)
            # (X X^T/n + eta I)^{-1} Y = resid / eta on either route
            resid = data.y - data.x @ fit.mu_hat
            oracle = tau_hat(data, eta) / np.sqrt(n) * float(np.linalg.norm(resid)) / eta
            assert sweep.gamma_hat(eta) == pytest.approx(oracle, rel=1e-10)
            assert gamma_hat(data, eta) == sweep.gamma_hat(eta)
    over = toy_dataset(10, 30, seed=9)
    sweep = GramSweep(over.x, over.y)
    np.testing.assert_allclose(
        sweep.mu_hat(0.0), ridgeless_fit(over).mu_hat, atol=1e-9
    )


def test_gram_sweep_refuses_an_overflowed_gram_matrix():
    # finite entries near 1e200 square past the float range in the Gram matrix
    rng = np.random.default_rng(0)
    for m, n, gram in [(20, 40, "X X^T"), (40, 20, "X^T X")]:
        x = 1e200 * rng.standard_normal((m, n))
        message = re.escape(f"Gram matrix {gram} / n is not finite")
        with pytest.raises(IllConditioned, match=message):
            GramSweep(x, np.ones(m))


def rel_gap(got, want) -> float:
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


@settings(max_examples=40, deadline=None)
@given(
    dual=st.booleans(),
    short=st.one_of(st.just(1), st.integers(2, 12)),
    extra=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
    log_eta=st.floats(-1.0, 1.0),
)
@example(dual=True, short=1, extra=0, seed=0, log_eta=0.0)
@example(dual=True, short=1, extra=8, seed=1, log_eta=-1.0)
@example(dual=False, short=1, extra=8, seed=2, log_eta=-1.0)
def test_dual_and_primal_sweeps_match_a_dense_solve(dual, short, extra, seed, log_eta):
    # each route is checked on the shapes that select it (m <= n dual, m > n
    # primal); both within 1e-10 of the dense solve puts them within 2e-10
    # of each other
    m, n = (short, short + extra) if dual else (short + extra + 1, short)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    eta = 10.0**log_eta
    mu = np.linalg.solve(x.T @ x / n + eta * np.eye(n), x.T @ y / n)
    inv_dual = np.linalg.inv(x @ x.T / n + eta * np.eye(m))
    tau = n / np.trace(inv_dual)
    dense = {
        "mu_hat": mu,
        "resid": y - x @ mu,
        "tau_hat": tau,
        "gamma_hat": tau / np.sqrt(n) * np.linalg.norm(inv_dual @ y),
    }
    sweep = GramSweep(x, y)
    assert sweep.dual is dual
    for name, want in dense.items():
        assert rel_gap(getattr(sweep, name)(eta), want) <= 1e-10, name


def test_sigma_hat_sq_formula_and_clamp():
    model = Isotropic(4.0, 1)
    raw, clamped = sigma_hat_sq(2.0, 1.0, 0.5, 0.5, np.array([1.0]), model)
    assert raw == pytest.approx(4.0 * 1.5 - 0.25, rel=1e-14)
    assert clamped == raw
    raw, clamped = sigma_hat_sq(0.1, 1.0, 0.0, 0.9, np.array([1.0]), model)
    assert raw < 0.0
    assert clamped == 0.0


def test_gcv_select_flat_objective_takes_smallest_eta():
    # m = n = 1 with X = [1] makes gamma_hat constant in eta
    data = Dataset(x=np.array([[1.0]]), y=np.array([1.0]), model=Isotropic(1.0, 1))
    result = gcv_select(data, [0.1, 0.5, 1.0])
    np.testing.assert_allclose(result.objective, result.objective[0])
    assert result.eta_hat == 0.1
    assert result.method == "gcv"

    single = gcv_select(data, [0.7])
    assert single.eta_hat == 0.7

    # rank-deficient X X^T: gamma_hat(0) does not exist, so a grid through 0
    # is refused instead of selecting eta = 0 from a NaN objective
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 10))
    low_rank = Dataset(x=x, y=rng.standard_normal(6), model=Isotropic(1.0, 10))
    with pytest.raises(IllConditioned):
        gcv_select(low_rank, [0.0, 0.5, 1.0])
    assert np.all(np.isfinite(gcv_select(low_rank, [0.5, 1.0]).objective))


def test_grid_validation():
    data = toy_dataset(6, 9)
    with pytest.raises(InputError):
        gcv_select(data, [])
    with pytest.raises(InputError):
        gcv_select(data, [0.5, 0.5])
    with pytest.raises(InputError):
        gcv_select(data, [0.5, 0.1])
    with pytest.raises(InputError):
        gcv_select(data, [-0.1, 0.5])
    # non-finite and out-of-band points are refused before any objective is
    # read: nan used to come back as eta_hat, inf as a ZeroDivisionError
    folds = kfold_folds(data.m, 3, stream(0, 0, "fold"))
    for grid, bad in (([0.5, np.nan], "nan"), ([0.5, np.inf], "inf"),
                      ([0.5, 1e61], "1e+61"), ([1e-61, 0.5], "1e-61")):
        for select in (
            lambda: gcv_select(data, grid),
            lambda: kfold_select(data, grid, 3, 0),
            lambda: kfold_objective(data, grid, folds),
        ):
            message = re.escape(f"lie in [1e-60, 1e+60], got {bad}")
            with pytest.raises(InputError, match=message):
                select()
    with pytest.raises(InputError, match="eta grid must be strictly ascending"):
        kfold_select(data, [0.5, 0.1], 3, 0)


def test_kfold_folds_properties():
    rng = stream(3, 0, "fold")
    folds = kfold_folds(10, 3, rng)
    assert [len(f) for f in folds] == [4, 3, 3]
    assert sorted(np.concatenate(folds).tolist()) == list(range(10))
    again = kfold_folds(10, 3, stream(3, 0, "fold"))
    for a, b in zip(folds, again):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(InputError):
        kfold_folds(10, 1, rng)
    with pytest.raises(InputError):
        kfold_folds(10, 11, rng)


def test_kfold_leave_one_out_smoke():
    data = toy_dataset(4, 6, seed=8)
    result = kfold_select(data, [0.2, 0.6, 1.1], k=4, seed=5)
    assert result.eta_hat in (0.2, 0.6, 1.1)
    assert result.method == "cv4"
    again = kfold_select(data, [0.2, 0.6, 1.1], k=4, seed=5)
    assert again.eta_hat == result.eta_hat
    np.testing.assert_allclose(again.objective, result.objective)


def test_kfold_duplicate_blocks_objective():
    # three identical blocks: every held-out fit trains on two copies of the
    # same block, so the objective equals that single fit's block error
    rng = np.random.default_rng(11)
    m0, n = 5, 12
    x0 = rng.standard_normal((m0, n))
    y0 = rng.standard_normal(m0)
    x = np.vstack([x0, x0, x0])
    y = np.concatenate([y0, y0, y0])
    data = Dataset(x=x, y=y, model=Isotropic(1.0, n))
    folds = [np.arange(0, 5), np.arange(5, 10), np.arange(10, 15)]
    grid = np.array([0.3, 0.8])
    objective = kfold_objective(data, grid, folds)
    double = Dataset(
        x=np.vstack([x0, x0]), y=np.concatenate([y0, y0]), model=Isotropic(1.0, n)
    )
    for i, eta in enumerate(grid):
        mu = ridge_fit(double, float(eta)).mu_hat
        expected = float(np.sum((y0 - x0 @ mu) ** 2)) / m0
        assert objective[i] == pytest.approx(expected, rel=1e-10)
    reordered = kfold_objective(data, grid, folds[::-1])
    np.testing.assert_allclose(reordered, objective, rtol=1e-12)


def assert_kfold_matches_refit(data, grid, folds):
    """The block-deletion objective against one refit per training fold."""
    objective = kfold_objective(data, grid, folds)
    refit = regress._kfold_refit(data, np.asarray(grid, dtype=float), folds)
    assert np.all(np.isfinite(refit))
    rel = np.max(np.abs(objective - refit) / np.abs(refit))
    assert rel <= 1e-12, f"relative gap {rel:.2e}"
    assert np.argmin(objective) == np.argmin(refit)


@pytest.mark.parametrize(
    "m, n, k, grid",
    [
        (40, 90, 4, np.linspace(0.0, 1.5, 16)),  # dual, grid through 0
        (36, 20, 3, np.linspace(0.05, 1.5, 16)),  # primal
        (37, 90, 4, np.linspace(0.0, 1.5, 16)),  # dual, uneven folds
        (53, 20, 3, np.linspace(0.05, 1.5, 16)),  # primal, uneven folds
        (60, 20, 5, np.linspace(0.0, 1.5, 16)),  # primal at 0, m - |B| > n
        (50, 45, 5, np.linspace(0.0, 1.5, 16)),  # primal at 0, m - |B| <= n
    ],
)
def test_kfold_objective_matches_refit(m, n, k, grid):
    data = toy_dataset(m, n, seed=m + n)
    assert_kfold_matches_refit(data, grid, kfold_folds(m, k, stream(m, n, "fold")))


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(4, 40),
    n=st.integers(1, 60),
    k=st.integers(2, 8),
    with_zero=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kfold_objective_matches_refit_on_random_shapes(m, n, k, with_zero, seed):
    # eta = 0 takes the identity only on a dual sample, which must be
    # invertible; m = n leaves X X^T too close to singular for 1e-12
    with_zero = with_zero and m != n
    data = toy_dataset(m, n, seed=seed)
    grid = np.linspace(0.0 if with_zero else 0.1, 2.0, 8)
    folds = kfold_folds(m, min(k, m), np.random.default_rng(seed))
    assert_kfold_matches_refit(data, grid, folds)


def test_kfold_factors_the_sample_once(monkeypatch):
    built = []

    class CountedSweep(GramSweep):
        def __init__(self, x, y):
            built.append(x.shape)
            super().__init__(x, y)

    monkeypatch.setattr(regress, "GramSweep", CountedSweep)
    for m, n, grid, sweeps in [
        (40, 90, np.linspace(0.0, 1.5, 8), 1),
        (60, 20, np.linspace(0.1, 1.5, 8), 1),
        (60, 20, np.linspace(0.0, 1.5, 8), 1 + 5),  # eta = 0 refit per fold
    ]:
        built.clear()
        data = toy_dataset(m, n, seed=4)
        kfold_objective(data, grid, kfold_folds(m, 5, stream(4, 0, "fold")))
        assert len(built) == sweeps
        assert built[0] == (m, n)


def test_kfold_refuses_singular_gram_at_zero():
    # equal rows 0 and 1 make X X^T singular; at eta = 0 the per-fold refit
    # used to divide by zero on a training fold holding both rows and pick
    # eta = 0 from the NaN objective, where GCV raises
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 90))
    x[1] = x[0]
    data = Dataset(x=x, y=rng.standard_normal(40), model=Isotropic(1.0, 90))
    grid = np.linspace(0.0, 1.5, 7)
    with pytest.raises(IllConditioned):
        gcv_select(data, grid)
    for seed in (0, 1):
        with pytest.raises(IllConditioned):
            kfold_select(data, grid, 4, seed)
    # eta > 0 keeps A = X X^T / n + eta I invertible
    assert_kfold_matches_refit(
        data, grid[1:], kfold_folds(40, 4, stream(1, 0, "fold"))
    )


def test_kfold_refuses_singular_primal_gram_at_zero():
    # equal columns 0 and 1 make every training fold's X^T X singular; at
    # eta = 0 the per-fold least-squares refit used to divide by its zero
    # eigenvalue and pick eta = 0 from the NaN objective
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 20))
    x[:, 1] = x[:, 0]
    data = Dataset(x=x, y=rng.standard_normal(60), model=Isotropic(1.0, 20))
    grid = np.linspace(0.0, 1.5, 7)
    with pytest.raises(IllConditioned, match="X\\^T X condition"):
        kfold_select(data, grid, 5, 1)
    with pytest.raises(IllConditioned):
        regress._kfold_refit(data, grid, kfold_folds(60, 5, stream(1, 0, "fold")))
    # eta > 0 keeps every training fold's ridge system invertible
    result = kfold_select(data, grid[1:], 5, 1)
    assert np.all(np.isfinite(result.objective))


def test_debias_closed_forms():
    mu = np.array([0.3, -0.7])
    np.testing.assert_allclose(
        debias(mu, 1.0, Isotropic(1.0, 2)), 2.0 * mu, rtol=1e-14
    )
    spiked = SpikedUniform(1.0, 0.5, 2)
    ones = np.array([1.0, 1.0])
    np.testing.assert_allclose(debias(ones, 1.0, spiked), 1.5 * ones, rtol=1e-14)
    alt = np.array([1.0, -1.0])
    np.testing.assert_allclose(debias(alt, 1.0, spiked), 2.0 * alt, rtol=1e-14)
    with pytest.raises(InputError):
        debias(mu, 0.0, Isotropic(1.0, 2))


def test_confidence_interval_width():
    n = 100
    mu_d = np.zeros(n)
    report = confidence_intervals(mu_d, 1.0, Isotropic(1.0, n), 0.05)
    np.testing.assert_allclose(report.lengths, 2.0 * Z_05 / 10.0, rtol=1e-12)
    assert report.upper[0] == pytest.approx(Z_05 / 10.0, rel=1e-12)
    report = confidence_intervals(mu_d, 1.0, Isotropic(1.0, n), 0.32)
    np.testing.assert_allclose(report.lengths, 2.0 * Z_32 / 10.0, rtol=1e-12)


def test_confidence_interval_coverage_and_validation():
    n = 50
    mu0 = SignalVector(np.linspace(-1.0, 1.0, n))
    report = confidence_intervals(mu0.coords.copy(), 1.0, Isotropic(1.0, n), 0.05, mu0)
    assert report.coverage == 1.0
    far = confidence_intervals(mu0.coords + 100.0, 1.0, Isotropic(1.0, n), 0.05, mu0)
    assert far.coverage == 0.0
    manual = CIReport(
        lower=np.array([0.0, 0.0]),
        upper=np.array([1.0, 1.0]),
        alpha=0.05,
        gamma_hat=1.0,
    )
    assert coverage(manual, SignalVector(np.array([0.5, 2.0]))) == 0.5
    with pytest.raises(InputError):
        confidence_intervals(mu0.coords, 1.0, Isotropic(1.0, n), 1.5)
    with pytest.raises(InputError):
        confidence_intervals(mu0.coords, -1.0, Isotropic(1.0, n), 0.05)
    with pytest.raises(InputError):
        confidence_intervals(np.zeros(n + 1), 1.0, Isotropic(1.0, n), 0.05)


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(x=np.ones(3), y=np.ones(3), model=Isotropic(1.0, 3))
    with pytest.raises(InputError):
        Dataset(x=np.ones((0, 3)), y=np.ones(0), model=Isotropic(1.0, 3))
    with pytest.raises(InputError):
        Dataset(x=np.ones((3, 2)), y=np.ones(2), model=Isotropic(1.0, 2))
    with pytest.raises(InputError):
        Dataset(x=np.ones((3, 2)), y=np.ones(3), model=Isotropic(1.0, 4))
    x = np.ones((3, 2))
    mu0 = SignalVector(np.array([1.0, 1.0]))
    with pytest.raises(InputError):
        Dataset(
            x=x, y=np.zeros(3), model=Isotropic(1.0, 2), mu0=mu0, xi=np.zeros(3)
        )


def test_dataset_rejects_non_finite_values():
    base = toy_dataset(4, 6)
    bad_y = base.y.copy()
    bad_y[1] = np.nan
    bad_x = base.x.copy()
    bad_x[2, 3] = np.inf
    bad_xi = base.xi.copy()
    bad_xi[0] = -np.inf
    for kwargs in (
        dict(x=base.x, y=bad_y),
        dict(x=bad_x, y=base.y),
        dict(x=base.x, y=base.y, xi=bad_xi),
    ):
        with pytest.raises(InputError, match="NaN or inf"):
            Dataset(model=base.model, **kwargs)


def test_sigma_hat_sq_mc_consistency():
    # ridgeless at phi = 1/2: the raw noise estimate is unbiased to MC accuracy
    m, n, seed = 200, 400, 13
    model = Isotropic(1.0, n)
    mu0 = sample_signal("sphere", n, stream(seed, 0, "signal"))
    raws = []
    for rep in range(100):
        x = sample_design("gaussian", m, n, model, stream(seed, rep, "design"))
        xi = sample_noise("gaussian", m, 1.0, stream(seed, rep, "noise"))
        data = Dataset(x=x, y=x @ mu0.coords + xi, model=model, mu0=mu0, xi=xi)
        fit = ridgeless_fit(data)
        tau = tau_hat(data, 0.0)
        gamma = gamma_hat(data, 0.0)
        raw, _ = sigma_hat_sq(gamma, tau, 0.0, data.phi, fit.mu_hat, model)
        raws.append(raw)
    assert float(np.mean(raws)) == pytest.approx(1.0, abs=0.1)


def test_tuning_selects_near_optimal_risk():
    """GCV and 5-fold CV land within the grid-min prediction-risk slack.

    The selected eta itself is noisy (the objective is flat near its
    minimum), so closeness is measured in risk, not in eta.
    """
    m, n, seed, reps = 120, 180, 3, 20
    model = build_model({"kind": "spiked_uniform", "a": 1.99, "b": 0.01}, n)
    grid = np.linspace(0.0, 1.5, 16)
    ok_gcv = ok_cv = 0
    for rep in range(reps):
        mu0 = sample_signal("sphere", n, stream(seed, rep, "signal"))
        x = sample_design("scaled_t10", m, n, model, stream(seed, rep, "design"))
        xi = sample_noise("scaled_t10", m, 1.0, stream(seed, rep, "noise"))
        data = Dataset(x=x, y=x @ mu0.coords + xi, model=model, mu0=mu0, xi=xi)
        sweep = GramSweep(x, data.y)
        risks = np.array(
            [sigma_quad(model, sweep.mu_hat(float(e)) - mu0.coords) for e in grid]
        )
        slack = max(0.1 * float(risks.min()), 0.05)
        sel_gcv = gcv_select(data, grid)
        sel_cv = kfold_select(data, grid, 5, stream(seed, rep, "fold"))
        risk_at = lambda sel: float(risks[int(np.argmin(np.abs(grid - sel.eta_hat)))])
        ok_gcv += int(risk_at(sel_gcv) <= risks.min() + slack)
        ok_cv += int(risk_at(sel_cv) <= risks.min() + slack)
    assert ok_gcv >= 16, f"gcv near-optimal in {ok_gcv}/20 reps"
    assert ok_cv >= 16, f"cv5 near-optimal in {ok_cv}/20 reps"
