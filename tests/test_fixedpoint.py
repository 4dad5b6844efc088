"""Fixed-point solver: closed forms, finite differences, residual invariants."""

import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iso_problem, random_problem
from oracles import eigenvalues
from ridgelab import cli, errors, fixedpoint
from ridgelab import (
    Explicit,
    InputError,
    Isotropic,
    NonConvergence,
    NoSolution,
    ProblemConfig,
    SignalVector,
    SpikedUniform,
    expected_dof,
    expected_err,
    solve_effective,
    solve_grid,
    solve_tau,
    quad_form,
    spiked_uniform,
    tau_bounds,
    trace_functional,
)
from ridgelab.spectrum import fixed_point_sums, resolvent_sums

# 50-digit evaluations of the isotropic phi=1/2, sigma^2=1, ||mu0||=1 system
TAU_AT_ONE = 3.5615528128088303
TAU_PRIME_AT_ONE = 2.2126781251816649
TAU_SECOND_AT_ONE = -0.22826882356360750
M_PRIME_AT_ONE = 0.087218671906791352
M_SECOND_AT_ONE = 0.058685068961340414
LO_AT_ONE = 1.2807764064044151


def test_isotropic_interpolation_closed_forms():
    params = solve_effective(iso_problem(eta=0.0))
    assert params.tau_star == pytest.approx(1.0, abs=1e-12)
    assert params.gamma_star_sq == pytest.approx(5.0, abs=1e-11)
    assert params.tau_prime == pytest.approx(4.0, abs=1e-11)
    assert params.tau_second == pytest.approx(-16.0, abs=1e-9)
    assert params.gamma_tilde_sq == pytest.approx(5.0, abs=1e-11)


def test_isotropic_ridge_closed_forms():
    params = solve_effective(iso_problem(eta=1.0))
    assert params.tau_star == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, abs=1e-12)
    assert params.tau_star == pytest.approx(TAU_AT_ONE, abs=1e-12)
    assert params.tau_prime == pytest.approx(TAU_PRIME_AT_ONE, abs=1e-12)
    assert params.tau_second == pytest.approx(TAU_SECOND_AT_ONE, abs=1e-12)
    assert params.m_val == pytest.approx(1.0 / TAU_AT_ONE, abs=1e-13)
    assert params.m_prime == pytest.approx(M_PRIME_AT_ONE, abs=1e-13)
    assert params.m_second == pytest.approx(M_SECOND_AT_ONE, abs=1e-13)
    # gamma^2 = tau at this configuration
    assert params.gamma_star_sq == pytest.approx(params.tau_star, rel=1e-12)


def test_tau_bounds_isotropic():
    assert tau_bounds(iso_problem(eta=0.0)) == pytest.approx((0.5, 2.0), abs=1e-12)
    lo, hi = tau_bounds(iso_problem(eta=1.0))
    assert lo == pytest.approx(LO_AT_ONE, abs=1e-12)
    assert hi == pytest.approx(4.0, abs=1e-12)
    assert lo < TAU_AT_ONE < hi


def test_interpolation_requires_overparametrization():
    with pytest.raises(NoSolution):
        tau_bounds(iso_problem(eta=0.0, phi=1.0))
    with pytest.raises(NoSolution):
        solve_tau(iso_problem(eta=0.0, phi=1.5))


def test_tau_in_bounds_random(rng):
    for _ in range(20):
        config = random_problem(rng)
        lo, hi = tau_bounds(config)
        tau = solve_tau(config)
        assert lo - 1e-12 <= tau <= hi + 1e-12


def test_fixed_point_residuals_random(rng):
    for _ in range(20):
        config = random_problem(rng)
        params = solve_effective(config)
        tau, gsq = params.tau_star, params.gamma_star_sq
        f = (
            trace_functional(config.model, tau, 1, 1)
            + config.eta / tau
            - config.phi
        )
        assert abs(f) <= 1e-11
        err = expected_err(config.model, config.mu0, gsq, tau)
        dof = expected_dof(config.model, gsq, tau)
        scale = max(1.0, config.phi * gsq)
        assert abs(config.phi * gsq - config.sigma_sq - err) <= 1e-10 * scale
        assert abs((config.phi - config.eta / tau) * gsq - dof) <= 1e-10 * scale


def test_gamma_sq_dominates_noise(rng):
    # phi gamma^2 = sigma^2 + prediction error >= sigma^2
    for _ in range(10):
        config = random_problem(rng)
        params = solve_effective(config)
        assert config.phi * params.gamma_star_sq >= config.sigma_sq - 1e-12


def test_overflowed_gamma_sq_is_non_convergence():
    # ||mu0||^2 = 2e400 overflows: gamma^2 is inf and both residuals NaN.
    # ProblemConfig refuses this mu0 (its norm is out of SCALE_RANGE); with
    # the band lifted, the solver's residual check still stops the solve.
    mu0 = SignalVector(np.array([1e200, 1e200]))
    model = Explicit(np.array([2.0, 1.0]))
    with pytest.raises(InputError, match=r"squared norm of 'mu0' must lie in \[0, 1e\+60\]"):
        ProblemConfig(phi=0.5, eta=0.25, sigma_sq=1.0, model=model, mu0=mu0)
    with mock.patch.object(errors, "SCALE_RANGE", (0.0, math.inf)):
        config = ProblemConfig(phi=0.5, eta=0.25, sigma_sq=1.0, model=model, mu0=mu0)
    with np.errstate(over="ignore"), pytest.raises(NonConvergence, match=r"eta = 0\.25"):
        solve_effective(config)


def test_derivatives_match_finite_differences(rng):
    h = 1e-5
    for config in [
        iso_problem(eta=1.0),
        iso_problem(eta=0.3, phi=0.7),
        random_problem(rng).with_eta(0.9),
    ]:
        params = solve_effective(config)
        taus = [solve_tau(config.with_eta(config.eta + k * h)) for k in (-1, 0, 1)]
        fd_prime = (taus[2] - taus[0]) / (2.0 * h)
        fd_second = (taus[2] - 2.0 * taus[1] + taus[0]) / (h * h)
        assert params.tau_prime == pytest.approx(fd_prime, rel=1e-5)
        assert params.tau_second == pytest.approx(fd_second, rel=1e-4)
        inv = [1.0 / t for t in taus]
        fd_m_prime = -config.phi * (inv[2] - inv[0]) / (2.0 * h)
        fd_m_second = config.phi**2 * (inv[2] - 2.0 * inv[1] + inv[0]) / (h * h)
        assert params.m_prime == pytest.approx(fd_m_prime, rel=1e-5)
        assert params.m_second == pytest.approx(fd_m_second, rel=1e-4)


def test_tau_monotone_concave_in_eta():
    etas = np.linspace(0.0, 2.0, 21)
    grid = solve_grid(iso_problem(), etas)
    assert np.all(np.diff(grid.tau_star) > 0)
    assert np.all(grid.tau_prime > 0)
    assert np.all(grid.tau_second < 0)


def test_grid_matches_pointwise_solves():
    config = iso_problem(sigma_sq=0.5)
    etas = [0.0, 0.25, 1.0]
    grid = solve_grid(config, etas)
    for i, eta in enumerate(etas):
        single = solve_effective(config.with_eta(eta))
        assert grid.tau_star[i] == pytest.approx(single.tau_star, rel=1e-14)
        assert grid.gamma_star_sq[i] == pytest.approx(single.gamma_star_sq, rel=1e-14)


def test_warm_started_grid_takes_fewer_passes():
    # solve_grid starts each eta from the previous root's tangent, cold
    # solves from tau_bounds' hi. The warm and cold roots agree to rounding,
    # and every derived column within 1e-13 relative, in either grid
    # direction.
    rng = np.random.default_rng(1)
    lam = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 10_000))
    config = spectrum_problem(lam, 0.5, 0.0)
    etas = np.linspace(0.0, 1.5, 161)
    with mock.patch.object(fixedpoint, "resolvent_sums", wraps=resolvent_sums) as passes:
        warm = solve_grid(config, etas)
    assert passes.call_count <= 3.5 * etas.size
    with mock.patch.object(fixedpoint, "resolvent_sums", wraps=resolvent_sums) as passes:
        cold = [solve_effective(config.with_eta(eta)) for eta in etas]
    assert passes.call_count > 5 * etas.size
    descending = solve_grid(config, etas[::-1])
    for name in cli._FPE_COLUMNS.values():
        w, d = getattr(warm, name), getattr(descending, name)[::-1]
        for i, c in enumerate(cold):
            assert w[i] == pytest.approx(getattr(c, name), rel=1e-13), name
            assert d[i] == pytest.approx(w[i], rel=1e-14), name


def test_solve_effective_stores_the_problem(rng):
    # the risk formulas read phi, sigma_sq and ||mu0||^2 off the params, so
    # the solve stores the config's own values, bit for bit, and its signal
    for config in (iso_problem(eta=0.3, radius=0.7), random_problem(rng), random_problem(rng)):
        params = solve_effective(config)
        stored = (params.phi, params.sigma_sq, params.mu_norm_sq)
        given = (config.phi, config.sigma_sq, config.mu0.norm_sq)
        assert np.array(stored).tobytes() == np.array(given).tobytes()
        assert params.mu0 is config.mu0


def test_gamma_tilde_equals_gamma_star_isotropic():
    for eta, scale, radius in [(0.0, 1.0, 1.0), (0.7, 2.3, 0.6), (1.5, 0.5, 1.0)]:
        params = solve_effective(iso_problem(eta=eta, scale=scale, radius=radius))
        assert params.gamma_tilde_sq == pytest.approx(
            params.gamma_star_sq, rel=1e-10
        )


def test_gamma_tilde_differs_for_anisotropic():
    model = SpikedUniform(1.99, 0.01, 200)
    mu0 = SignalVector(np.ones(200) / np.sqrt(200.0))  # all mass on the spike
    config = ProblemConfig(phi=0.5, eta=0.5, sigma_sq=1.0, model=model, mu0=mu0)
    params = solve_effective(config)
    assert abs(params.gamma_tilde_sq - params.gamma_star_sq) > 1e-3


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("phi", 1e-320, "'phi' must lie in [1e-08, 1e+08], got 1e-320"),
        ("phi", math.nan, "'phi' must lie in [1e-08, 1e+08], got nan"),
        ("eta", 1e61, "'eta' must be 0 or lie in [1e-60, 1e+60], got 1e+61"),
        ("sigma_sq", math.inf, "'sigma_sq' must lie in [0, 1e+60], got inf"),
        ("mu0", SignalVector(np.full(4, 1e200)), "squared norm of 'mu0' must lie in [0, 1e+60], got inf"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_problem_config_holds_its_fields_to_their_bands(field, value, message):
    good = iso_problem()
    with pytest.raises(InputError) as exc:
        dataclasses.replace(good, **{field: value})
    assert str(exc.value) == message
    if field == "eta":
        with pytest.raises(InputError, match="'eta' must be 0 or lie in"):
            good.with_eta(value)


def test_problem_config_validation():
    good = iso_problem()
    with pytest.raises(InputError):
        ProblemConfig(
            phi=0.0, eta=0.0, sigma_sq=1.0, model=good.model, mu0=good.mu0
        )
    with pytest.raises(InputError):
        ProblemConfig(
            phi=0.5, eta=-0.1, sigma_sq=1.0, model=good.model, mu0=good.mu0
        )
    with pytest.raises(InputError):
        ProblemConfig(
            phi=0.5, eta=0.0, sigma_sq=-1.0, model=good.model, mu0=good.mu0
        )
    with pytest.raises(InputError):
        ProblemConfig(
            phi=0.5,
            eta=0.0,
            sigma_sq=1.0,
            model=good.model,
            mu0=SignalVector(np.ones(good.model.n + 1)),
        )


def test_with_eta_preserves_everything_else():
    config = iso_problem(eta=0.2, sigma_sq=0.7)
    moved = config.with_eta(1.1)
    assert moved.eta == 1.1
    assert moved.phi == config.phi
    assert moved.sigma_sq == config.sigma_sq
    assert moved.model is config.model
    assert moved.mu0 is config.mu0


# -- the Newton solver against high-precision roots --------------------------


def refined_tau(config: ProblemConfig, tau: float) -> mpmath.mpf:
    """The root of T_{-1,1}(tau) + eta/tau = phi in 40-digit arithmetic.

    Three Newton steps from a double-precision root, on the exact float
    inputs; each step squares a relative error that starts below 1e-10.
    """
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(v)) for v in config.model.eigenvalues]
        phi, eta, t = mpmath.mpf(config.phi), mpmath.mpf(config.eta), mpmath.mpf(tau)
        for _ in range(3):
            f = mpmath.fsum(v / (v + t) for v in lam) / len(lam) + eta / t - phi
            slope = -mpmath.fsum(v / (v + t) ** 2 for v in lam) / len(lam) - eta / t**2
            t -= f / slope
        return t


def rel_gap(tau: float, ref) -> float:
    return float(abs((mpmath.mpf(tau) - ref) / ref))


def spectrum_problem(lam, phi: float, eta: float, seed: int = 0) -> ProblemConfig:
    rng = np.random.default_rng(seed)
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    mu0 = rng.standard_normal(lam.size)
    return ProblemConfig(
        phi=phi, eta=eta, sigma_sq=1.0, model=Explicit(lam), mu0=SignalVector(mu0)
    )


@st.composite
def spectra(draw):
    """Log-uniform spectra of 1 to 40 eigenvalues, condition number 1 to 1e8."""
    n = draw(st.integers(1, 40))
    log_cond = draw(st.floats(0.0, 8.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return scale * 10.0 ** (log_cond * rng.uniform(0.0, 1.0, n))


@st.composite
def problems(draw):
    lam = draw(spectra())
    if draw(st.booleans()):
        phi, eta = draw(st.floats(0.01, 0.999)), 0.0
    else:
        phi, eta = draw(st.floats(0.05, 10.0)), 10.0 ** draw(st.floats(-6.0, 6.0))
    return spectrum_problem(lam, phi, eta, seed=lam.size)


@st.composite
def hinted_problems(draw):
    """A problem and the starts solve_tau may be handed for it.

    "above" and "below" are params solved at another eta of the same problem,
    the starts an eta grid hands on; "larger phi" and "smaller phi" are
    params solved at the same eta with another phi, which are no tangents of
    this problem's tau*(eta). "cold" is no start.
    """
    config = draw(problems())
    step = draw(st.floats(0.01, 0.99))
    phi, eta = config.phi, config.eta
    others = {"above": config.with_eta(eta * (1.0 + step) + step)}
    if eta > 0:
        others["below"] = config.with_eta(eta * (1.0 - step))
    larger = phi + (1.0 - phi) * step if eta == 0 else phi * (1.0 + step)
    for name, other_phi in (("larger phi", larger), ("smaller phi", phi * step)):
        others[name] = dataclasses.replace(config, phi=other_phi)
    starts = {name: solve_effective(c) for name, c in others.items()}
    starts["cold"] = None
    return config, starts


@settings(max_examples=40, deadline=None)
@given(case=hinted_problems())
def test_solve_tau_matches_refined_root(case):
    # a warm start moves the first Newton iterate, never the root beyond
    # rounding. Rounding in F moves the root by kappa times as much, with
    # kappa = phi / (tau T_{-2,1} + eta/tau) >= 1 its relative condition
    # number, so every start lands within a few kappa ulps of the cold
    # solve: up to 4.1 kappa ulps apart over 6500 random cases
    config, starts = case
    cold = solve_tau(config)
    ref = refined_tau(config, cold)
    t21 = resolvent_sums(config.model, cold, config.phi)[1]
    kappa = config.phi / (cold * t21 + config.eta / cold)
    for name, start in starts.items():
        tau = solve_tau(config, start=start)
        assert rel_gap(tau, ref) <= 1e-13, name
        assert abs(tau - cold) <= 8 * kappa * math.ulp(cold), name


@pytest.mark.parametrize("phi", [0.99, 0.999, 0.9999])
def test_solve_tau_near_interpolation_threshold(phi):
    # at eta = 0, tau_star -> 0 as phi -> 1 and T_{-1,1} -> 1; the solver sums
    # F from 1 - phi and tau T_{-1,0} there, so tau keeps full relative accuracy
    config = spectrum_problem(np.geomspace(1e-2, 1e2, 30), phi, 0.0)
    tau = solve_tau(config)
    assert 0.0 < tau < 1.0
    assert rel_gap(tau, refined_tau(config, tau)) <= 1e-13


@pytest.mark.parametrize("eta", [1e3, 1e6, 1e9])
def test_solve_tau_large_eta(eta):
    # tau_star ~ eta / phi when eta dominates the spectrum
    config = spectrum_problem(np.geomspace(0.1, 10.0, 25), 0.7, eta)
    tau = solve_tau(config)
    assert tau == pytest.approx(eta / 0.7, rel=1e-2)
    assert rel_gap(tau, refined_tau(config, tau)) <= 1e-13


@pytest.mark.parametrize("phi, eta", [(0.3, 0.0), (0.9, 0.0), (0.5, 0.4), (2.5, 1e-3)])
def test_solve_tau_single_eigenvalue(phi, eta):
    # n = 1: lam/(lam + tau) + eta/tau = phi is a quadratic in tau
    lam = 2.5
    b = phi * lam - lam - eta
    closed = (-b + math.sqrt(b * b + 4.0 * phi * eta * lam)) / (2.0 * phi)
    config = spectrum_problem([lam], phi, eta)
    tau = solve_tau(config)
    assert tau == pytest.approx(closed, rel=1e-13)
    assert rel_gap(tau, refined_tau(config, tau)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(lam=spectra(), phi=st.floats(1.0, 10.0))
def test_interpolation_has_no_solution_above_threshold(lam, phi):
    with pytest.raises(NoSolution):
        solve_tau(spectrum_problem(lam, phi, 0.0))


@settings(max_examples=30, deadline=None)
@given(case=hinted_problems())
def test_newton_iterates_climb_to_the_root(case):
    # F is concave and increasing in u = 1/tau: once F(u) <= 0 (at a tangent
    # start, at 1/hi, or after halving u where rounding put hi below the
    # root) every Newton iterate stays left of the root, so u increases and
    # F stays <= 0 up to rounding, with no bracketing fallback. A start that
    # is right of the root costs one pass and falls back to 1/hi.
    config, starts = case
    f_and_slope = fixedpoint._f_and_slope
    for name, hint in starts.items():
        seen = []

        def recorded(cfg, u):
            f, slope = f_and_slope(cfg, u)
            seen.append((u, f))
            return f, slope

        with mock.patch.object(fixedpoint, "_f_and_slope", recorded):
            tau = solve_tau(config, start=hint)
        start = next(i for i, (_, f) in enumerate(seen) if f <= 0)
        assert start <= (2 if hint is None else 3), name
        us = [u for u, _ in seen[start:]]
        assert all(b > a for a, b in zip(us, us[1:])), name
        assert all(f <= 1e-13 * max(1.0, config.phi) for _, f in seen[start:]), name
        assert len(us) <= 40, name
        assert us[-1] <= 1.0 / tau * (1 + 1e-13), name


@settings(max_examples=30, deadline=None)
@given(config=problems())
def test_fused_sums_match_separate_functionals(config):
    tau = solve_tau(config)
    model, mu0 = config.model, config.mu0
    sums = fixed_point_sums(model, mu0, tau)
    separate = {
        "t11": trace_functional(model, tau, 1, 1),
        "t21": trace_functional(model, tau, 2, 1),
        "t31": trace_functional(model, tau, 3, 1),
        "t22": trace_functional(model, tau, 2, 2),
        "t32": trace_functional(model, tau, 3, 2),
        "signal": quad_form(model, mu0, tau, 1, 1),
        "signal0": quad_form(model, mu0, tau, 1, 0),
    }
    assert set(separate) == set(sums._fields)
    for name, value in separate.items():
        assert getattr(sums, name) == pytest.approx(value, rel=1e-13, abs=0.0), name
    # the public closed forms and solve_effective read the same sums, and
    # the solved params carry them
    params = solve_effective(config)
    assert params.tau_star == tau
    assert params.sums == sums
    gamma_sq = (config.sigma_sq + tau * tau * separate["signal"]) / (
        config.eta / tau + tau * separate["t21"]
    )
    assert params.gamma_star_sq == pytest.approx(gamma_sq, rel=1e-13)


class MergedExplicit(Explicit):
    """Explicit with its repeated eigenvalues merged into blocks of pairs()."""

    def pairs(self):
        lam, counts = np.unique(self.eigenvalues, return_counts=True)
        return lam[::-1].copy(), counts[::-1].astype(float)


@st.composite
def block_models(draw):
    """Models whose pairs() have blocks of equal eigenvalues, and explicit
    ones, among them plateaus of distinct eigenvalues a few ulps apart."""
    n = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["isotropic", "spiked_uniform", "explicit", "merged", "plateau"]))
    level = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    if kind == "isotropic":
        return Isotropic(draw(level), n)
    if kind == "spiked_uniform":
        return spiked_uniform(draw(level), draw(level), n)
    values = draw(st.lists(level, min_size=1, max_size=5))
    if kind == "plateau":
        ulps = 1.0 + 2.0**-52 * np.arange(draw(st.integers(1, 40)))
        return Explicit(np.sort(np.outer(values, ulps).ravel())[::-1][:n])
    lam = np.sort(np.repeat(values, draw(st.integers(1, 40))))[::-1][:n]
    # explicit: every eigenvalue is its own pair, so every k is a boundary
    return Explicit(lam) if kind == "explicit" else MergedExplicit(lam)


def block_problem(model, phi, log_eta, interpolate):
    eta = 0.0 if interpolate and phi < 1 else 10.0**log_eta
    return ProblemConfig(
        phi=phi, eta=eta, sigma_sq=1.0, model=model, mu0=SignalVector(np.ones(model.n))
    )


@settings(max_examples=80, deadline=None)
@given(model=block_models(), phi=st.floats(0.01, 5.0), log_eta=st.floats(-6.0, 3.0),
       interpolate=st.booleans())
def test_tau_bounds_hi_is_the_minimum_over_every_k(model, phi, log_eta, interpolate):
    # tau_bounds evaluates block boundaries only, which must give the
    # minimum over every k: blocks of equal eigenvalues leave it no
    # interior minimum
    config = block_problem(model, phi, log_eta, interpolate)
    n = model.n
    m = phi * n
    lam = [float(v) for v in eigenvalues(model)]
    brute = min(
        (math.fsum(lam[k:]) + n * config.eta) / (m - k)
        for k in range(min(math.ceil(m) - 1, n) + 1)
    )
    assert tau_bounds(config)[1] == pytest.approx(brute, rel=1e-13, abs=0.0)


def all_boundary_hi(config: ProblemConfig) -> float:
    """tau_bounds' hi as the minimum of its ratio over every admissible
    block boundary of pairs(), the O(blocks) scan the bisection replaced."""
    model = config.model
    n = model.n
    m = config.phi * n
    k_max = min(int(np.ceil(m)) - 1, n)
    starts = model.block_starts
    blocks = int(np.searchsorted(starts, k_max, side="right"))
    return float(np.min(
        (model.tail_sums[:blocks] + n * config.eta) / (m - starts[:blocks])
    ))


@settings(max_examples=200, deadline=None)
@given(model=block_models(), phi=st.floats(0.01, 5.0), log_eta=st.floats(-6.0, 3.0),
       interpolate=st.booleans())
def test_tau_bounds_bisection_matches_the_all_boundary_minimum(model, phi, log_eta, interpolate):
    # the ratio falls while g(j) < 0 and rises after, so the bisected
    # boundary is the scan's minimizer up to a tie in the last bit
    config = block_problem(model, phi, log_eta, interpolate)
    assert tau_bounds(config)[1] == pytest.approx(all_boundary_hi(config), rel=1e-15, abs=0.0)


def distinct_spectrum(n: int, seed: int = 1) -> np.ndarray:
    """n distinct log-uniform eigenvalues in [0.05, 20], descending."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lam = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(20.0), n)))[::-1]
    assert np.unique(lam).size == n
    return lam


def test_tau_bounds_hi_is_exact_on_a_large_distinct_spectrum():
    # 10^5 distinct eigenvalues: the benchmark's grid (phi = 0.5, 161 etas
    # on [0, 1.5]) bit for bit, and a spread of phi and eta within 1e-15
    model = Explicit(distinct_spectrum(100_000))
    mu0 = SignalVector(np.ones(model.n))
    for eta in np.linspace(0.0, 1.5, 161):
        config = ProblemConfig(phi=0.5, eta=float(eta), sigma_sq=1.0, model=model, mu0=mu0)
        assert tau_bounds(config)[1] == all_boundary_hi(config), eta
    for phi in (0.011, 0.3, 0.999, 1.0, 1.7, 4.99):
        for eta in (1e-6, 1e-3, 1.0, 1e3):
            config = ProblemConfig(phi=phi, eta=eta, sigma_sq=1.0, model=model, mu0=mu0)
            hi = tau_bounds(config)[1]
            assert hi == pytest.approx(all_boundary_hi(config), rel=1e-15, abs=0.0), (phi, eta)


class CountedReads(np.ndarray):
    """An array view that counts the elements read through indexing."""

    reads = 0

    def __getitem__(self, key):
        out = np.ndarray.__getitem__(self, key)
        CountedReads.reads += np.size(out)
        return out


@pytest.mark.parametrize("n", [1, 10, 1000, 100_000])
def test_tau_bounds_reads_o_log_blocks_boundaries(n):
    # three reads (tail sum, block start, eigenvalue) per bisection step
    # and two for the ratio, where the scan read every admissible boundary
    model = Explicit(distinct_spectrum(n))
    for name in ("block_values", "tail_sums", "block_starts"):
        model.__dict__[name] = getattr(model, name).view(CountedReads)
    mu0 = SignalVector(np.ones(n))
    bound = 3 * math.ceil(math.log2(n + 1)) + 2
    for phi, eta in ((0.5, 0.0), (0.5, 1.0), (2.0, 1e-3), (4.99, 1e3), (0.01, 1e-6)):
        config = ProblemConfig(phi=phi, eta=eta, sigma_sq=1.0, model=model, mu0=mu0)
        CountedReads.reads = 0
        tau_bounds(config)
        assert CountedReads.reads <= bound, (phi, eta)


@pytest.mark.parametrize("phi", [1.5, 2.0, 10.0])
def test_tau_bounds_lo_is_a_lower_bound_at_tiny_eta(phi):
    # lo solves H tau^2 - (1 - phi) tau - eta = 0; on Isotropic(1, n),
    # H = 1 and tau* = 2 eta / (b + sqrt(b^2 + 4 phi eta)), b = phi - 1 - eta.
    # The unrationalized root cancels at phi > 1: it put lo 5.6e-6 relative
    # above tau* at phi = 1.5, eta = 1e-12, and at 0 for eta = 1e-17.
    # lo - tau* is of order eta relative, so below eta = 1e-8 lo is tau*
    # to 1e-14
    model = Isotropic(1.0, 100)
    mu0 = SignalVector(np.ones(100))
    for eta in 10.0 ** -np.arange(3.0, 31.0):
        lo = tau_bounds(ProblemConfig(phi, eta, 1.0, model, mu0))[0]
        b = phi - 1.0 - eta
        tau = 2.0 * eta / (b + math.sqrt(b * b + 4.0 * phi * eta))
        assert 0.0 < lo <= tau, eta
        if eta <= 1e-8:
            assert lo == pytest.approx(tau, rel=1e-14, abs=0.0), eta
        with mpmath.workdps(40):
            p, e = mpmath.mpf(phi), mpmath.mpf(eta)
            exact = 2 * e / (p - 1 + mpmath.sqrt((1 - p) ** 2 + 4 * e))
        assert rel_gap(lo, exact) <= 1e-15, eta
