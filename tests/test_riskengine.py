"""Risk formulae: trace representation vs Stieltjes representation, l_q norms."""

import inspect
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridgelab
from conftest import iso_problem, random_problem
from oracles import risks_from_scalars
from ridgelab import riskengine
from ridgelab import (
    BothZero,
    Explicit,
    InputError,
    Isotropic,
    NumericalError,
    ProblemConfig,
    RiskCurve,
    RiskKind,
    SignalVector,
    SpikedUniform,
    derivative_factor,
    gaussian_abs_moment,
    lq_gamma_diag,
    lq_risk,
    opt_risks,
    optimal_eta,
    quad_form,
    risk_curve,
    risk_curves,
    risk_derivative,
    rmt_risk,
    solve_effective,
    spiked_uniform,
    theoretical_risk,
    trace_functional,
)

KINDS = (RiskKind.PRED, RiskKind.EST, RiskKind.INS, RiskKind.RES)

# closed forms at the isotropic phi=1/2, SNR=1 optimum eta*=1
OPT_PRED = (math.sqrt(17.0) - 1.0) / 4.0
OPT_INS = (5.0 - math.sqrt(17.0)) / 4.0

# sqrt(2) {Gamma((q+1)/2)/sqrt(pi)}^{1/q}, 50-digit evaluations
M_ONE = 0.79788456080286536
M_FOUR = 1.3160740129524925
M_SEVEN_THREE = 1.7157596562475117
M_TWENTY = 2.7593264334785622


def risks_at(config, eta):
    params = solve_effective(config.with_eta(eta))
    out = {}
    for kind in KINDS:
        out[kind] = (
            theoretical_risk(kind, params),
            rmt_risk(kind, params),
        )
    return params, out


def test_isotropic_interpolation_risk_values():
    config = iso_problem(eta=0.0)
    params, out = risks_at(config, 0.0)
    assert out[RiskKind.PRED][0] == pytest.approx(1.5, abs=1e-11)
    assert out[RiskKind.EST][0] == pytest.approx(1.5, abs=1e-11)
    assert out[RiskKind.INS][0] == pytest.approx(0.5, abs=1e-11)
    assert out[RiskKind.RES][0] == pytest.approx(0.0, abs=1e-13)
    # prediction risk identity phi gamma^2 - sigma^2
    assert out[RiskKind.PRED][0] == pytest.approx(
        config.phi * params.gamma_star_sq - config.sigma_sq, rel=1e-12
    )


def test_rmt_matches_theoretical_isotropic():
    for scale in (1.0, 2.3):
        for radius in (1.0, 0.5):
            config = iso_problem(scale=scale, radius=radius)
            for eta in (0.0, 0.3, 1.0, 1.5):
                _, out = risks_at(config, eta)
                for kind in KINDS:
                    theo, rmt = out[kind]
                    assert rmt == pytest.approx(theo, abs=1e-10), (scale, eta, kind)


def test_pred_identity_random(rng):
    for _ in range(10):
        config = random_problem(rng)
        params, out = risks_at(config, config.eta)
        assert out[RiskKind.PRED][0] == pytest.approx(
            config.phi * params.gamma_star_sq - config.sigma_sq, rel=1e-10
        )


def test_derivative_factors_isotropic_interpolation():
    params = solve_effective(iso_problem(eta=0.0))
    assert derivative_factor(RiskKind.PRED, params) == pytest.approx(8.0, rel=1e-9)
    assert derivative_factor(RiskKind.EST, params) == pytest.approx(8.0, rel=1e-9)
    assert derivative_factor(RiskKind.INS, params) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(InputError):
        derivative_factor(RiskKind.RES, params)


def test_risk_derivative_at_interpolation():
    config = iso_problem(eta=0.0)
    params = solve_effective(config)
    # (eta s0 - sigma^2) M = (0 - 1) * 8
    assert risk_derivative(RiskKind.PRED, params) == pytest.approx(-8.0, rel=1e-9)


def test_risk_derivative_vanishes_at_noise_to_signal_ratio():
    config = iso_problem(eta=1.0)
    params = solve_effective(config)
    for kind in (RiskKind.PRED, RiskKind.EST, RiskKind.INS):
        assert risk_derivative(kind, params) == pytest.approx(0.0, abs=1e-12)


def test_risk_derivative_matches_finite_differences(rng):
    h = 1e-5
    for config in [iso_problem(), random_problem(rng)]:
        for eta in (0.4, 1.2):
            params = solve_effective(config.with_eta(eta))
            for kind in (RiskKind.PRED, RiskKind.EST, RiskKind.INS):
                lo = rmt_risk(kind, solve_effective(config.with_eta(eta - h)))
                hi = rmt_risk(kind, solve_effective(config.with_eta(eta + h)))
                deriv = risk_derivative(kind, params)
                assert deriv == pytest.approx((hi - lo) / (2.0 * h), rel=1e-4)


def test_optimal_eta_cases():
    assert optimal_eta(1.0, 1.0) == 1.0
    assert optimal_eta(0.0, 1.0) == 0.0
    assert optimal_eta(0.5, 1.0) == 0.5
    assert optimal_eta(1.0, 2.0) == 0.5
    assert optimal_eta(1.0, 0.0) == math.inf
    with pytest.raises(BothZero):
        optimal_eta(0.0, 0.0)


def test_opt_risks_closed_forms():
    tau = (3.0 + math.sqrt(17.0)) / 2.0
    pred, est, ins = opt_risks(0.5, 1.0, tau)
    assert pred == pytest.approx(OPT_PRED, abs=1e-12)
    assert est == pytest.approx(OPT_PRED, abs=1e-12)
    assert ins == pytest.approx(OPT_INS, abs=1e-12)
    # OPT^ins (OPT^pred + 1) = phi OPT^pred
    assert ins * (pred + 1.0) == pytest.approx(0.5 * pred, abs=1e-12)
    with pytest.raises(InputError):
        opt_risks(0.5, 0.0, tau)


def test_opt_identity_random_phi():
    for phi in np.linspace(0.2, 0.9, 8):
        config = iso_problem(phi=float(phi), eta=1.0)
        tau = solve_effective(config).tau_star
        pred, est, ins = opt_risks(float(phi), 1.0, tau)
        assert ins * (pred + 1.0) == pytest.approx(phi * pred, abs=1e-12)
        # optimally tuned risks match the curves evaluated at eta*
        _, out = risks_at(config, 1.0)
        assert out[RiskKind.PRED][0] == pytest.approx(pred, rel=1e-10)
        assert out[RiskKind.EST][0] == pytest.approx(est, rel=1e-10)
        assert out[RiskKind.INS][0] == pytest.approx(ins, rel=1e-10)


def test_gaussian_abs_moment_values():
    assert gaussian_abs_moment(1.0) == pytest.approx(M_ONE, abs=1e-14)
    assert gaussian_abs_moment(2.0) == pytest.approx(1.0, abs=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(M_FOUR, abs=1e-14)
    assert gaussian_abs_moment(7.3) == pytest.approx(M_SEVEN_THREE, abs=1e-14)
    assert gaussian_abs_moment(20.0) == pytest.approx(M_TWENTY, abs=1e-14)
    assert gaussian_abs_moment(4.0) == pytest.approx(3.0**0.25, rel=1e-14)
    with pytest.raises(InputError):
        gaussian_abs_moment(0.0)


def _mp_abs_moment(q: float) -> float:
    """M_q from its log form at 50 digits beyond the ~|log10 q| that the
    O(q) difference of log-gammas cancels; q enters as an exact mpf."""
    with mpmath.workdps(50 + max(0, math.ceil(-math.log10(q)))):
        qm = mpmath.mpf(q)
        log_m = mpmath.log(2) / 2 + (
            mpmath.loggamma((qm + 1) / 2) - mpmath.log(mpmath.pi) / 2
        ) / qm
        return float(mpmath.exp(log_m))


def test_gaussian_abs_moment_matches_mpmath_from_tiny_to_large_q():
    # the direct form divides an O(q) difference of lgammas by q and read
    # 0.529772 at q = 1e-12 and 0.526489 at 1e-14; below _SMALL_Q the series
    # in the derivatives of psi at 1/2 takes over
    switch = riskengine._SMALL_Q
    qs = np.concatenate((
        np.logspace(-300, 3, 61),
        np.logspace(-5, -1, 41),
        [1e-12, 1e-14, 1e-15, switch, np.nextafter(switch, 0.0)],
    ))
    for q in qs:
        assert gaussian_abs_moment(float(q)) == pytest.approx(
            _mp_abs_moment(float(q)), rel=1e-12, abs=0.0
        ), q
    limit = math.sqrt(2.0) * math.exp(float(mpmath.digamma(0.5)) / 2.0)
    assert gaussian_abs_moment(1e-300) == pytest.approx(limit, rel=1e-15)


def test_lq_risk_values():
    diag = np.array([1.0, 1.0])
    assert lq_risk(4.0, diag, 2) == pytest.approx(1.1066819197003216, abs=1e-13)
    assert lq_risk(4.0, diag, 2) == pytest.approx(1.5**0.25, rel=1e-14)
    # q = 2 collapses to the root-mean diagonal
    rng = np.random.default_rng(3)
    d = rng.uniform(0.1, 2.0, 9)
    assert lq_risk(2.0, d, 9) == pytest.approx(math.sqrt(d.mean()), rel=1e-12)
    with pytest.raises(InputError):
        lq_risk(0.0, diag, 2)
    with pytest.raises(InputError):
        lq_risk(2.0, np.array([1.0, -0.1]), 2)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.5, 12.0),
    n=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lq_risk_scaled_sum_matches_the_plain_sum(q, n, scale, seed):
    # lq_risk sums (d / max d)^{q/2}; on ordinary inputs the plain power sum
    # cannot overflow and the two forms agree to rounding
    d = scale * np.random.default_rng(seed).uniform(0.05, 2.0, n)
    plain = float(np.sum(d ** (q / 2.0))) ** (1.0 / q) * gaussian_abs_moment(q) / math.sqrt(n)
    assert lq_risk(q, d, n) == pytest.approx(plain, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_lq_risk_stays_finite_where_the_plain_sum_overflows():
    d = np.array([1e60, 0.5e60, 0.0])
    value = lq_risk(40.0, d, 3)
    assert math.isfinite(value)
    # the largest entry dominates: sqrt(1e60) (1 + 0.5^20)^{1/40} M_40 / sqrt(3)
    expected = 1e30 * (1.0 + 0.5**20) ** (1.0 / 40.0) * gaussian_abs_moment(40.0) / math.sqrt(3)
    assert value == pytest.approx(expected, rel=1e-14)
    assert lq_risk(3.0, np.zeros(4), 4) == 0.0


def test_lq_gamma_diag_isotropic_baseline():
    config = iso_problem(eta=0.0)
    params = solve_effective(config)
    diag = lq_gamma_diag(None, config.model, params)
    np.testing.assert_allclose(diag, 1.5, rtol=1e-11)


def test_lq_gamma_diag_weight_paths_agree(rng):
    # an eigenbasis weight against the same weight as a dense matrix, on
    # each model kind; the spiked one is w_top P1 + w_bulk (I - P1)
    n = 30
    lam = np.sort(rng.uniform(0.3, 3.0, n))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    spike = np.full((n, n), 1.0 / n)
    base = random_problem(rng, n)
    w = rng.uniform(0.0, 2.0, n)
    bulk_w = np.concatenate(([w[0]], np.full(n - 1, w[1])))
    cases = [
        (Isotropic(1.3, n), w, np.diag(w)),
        (SpikedUniform(1.99, 0.01, n), bulk_w, w[0] * spike + w[1] * (np.eye(n) - spike)),
        (Explicit(lam), w, np.diag(w)),
        (Explicit(lam, basis), w, basis @ np.diag(w) @ basis.T),
    ]
    for model, weight, dense in cases:
        config = ProblemConfig(
            phi=base.phi, eta=0.5, sigma_sq=1.0, model=model, mu0=base.mu0
        )
        params = solve_effective(config)
        eigen_path = lq_gamma_diag(weight, model, params)
        dense_path = lq_gamma_diag(dense, model, params)
        np.testing.assert_allclose(dense_path, eigen_path, rtol=1e-10, atol=1e-13)
        identity_path = lq_gamma_diag(None, model, params)
        via_ones = lq_gamma_diag(np.ones(n), model, params)
        np.testing.assert_allclose(via_ones, identity_path, rtol=1e-12)


def test_dense_weight_symmetry_tolerance_is_absolute():
    # allclose's default rtol=1e-5 would pass an asymmetry of 5e-6; the
    # closed form reads A^T M A while the Monte Carlo applies A
    config = iso_problem(n=3)
    params = solve_effective(config)
    a = 2.0 * np.eye(3)
    a[0, 1], a[1, 0] = 1.0, 1.000005
    with pytest.raises(InputError) as exc:
        lq_gamma_diag(a, config.model, params)
    assert str(exc.value) == "dense weight matrix must be symmetric"


def test_lq_gamma_diag_rejects_bad_weights():
    config = iso_problem(n=4)
    params = solve_effective(config)
    with pytest.raises(InputError):
        lq_gamma_diag(np.array([1.0, -1.0, 0.0, 0.0]), config.model, params)
    with pytest.raises(InputError):
        lq_gamma_diag(np.ones(3), config.model, params)
    skew = np.eye(4)
    skew[0, 1] = 0.5
    with pytest.raises(InputError):
        lq_gamma_diag(skew, config.model, params)
    neg = -np.eye(4)
    with pytest.raises(InputError):
        lq_gamma_diag(neg, config.model, params)


def test_lq_dense_guard():
    config = iso_problem(n=5001)
    params = solve_effective(config)
    with pytest.raises(InputError):
        lq_gamma_diag(np.eye(2), config.model, params)


def test_risk_curve_structure():
    config = iso_problem(sigma_sq=1.0)
    etas = np.linspace(0.0, 1.5, 7)
    curve = risk_curve(config, RiskKind.PRED, etas)
    assert curve.kind == RiskKind.PRED
    np.testing.assert_allclose(curve.etas, etas)
    assert curve.derivative is not None
    assert curve.theoretical.shape == etas.shape
    np.testing.assert_allclose(curve.rmt, curve.theoretical, atol=1e-10)
    res = risk_curve(config, RiskKind.RES, etas)
    assert res.derivative is None
    assert res.theoretical[0] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_risk_curve_is_its_kind_of_risk_curves(kind):
    config = random_problem(np.random.default_rng(4), n=30)
    etas = np.linspace(0.1, 1.5, 9)
    one = risk_curve(config, kind, etas)
    every = risk_curves(config, KINDS, etas)
    assert list(every) == list(KINDS)
    for curve in (every[kind], risk_curves(config, [kind], etas)[kind]):
        assert curve.kind == one.kind
        for column in ("etas", "theoretical", "rmt", "derivative"):
            np.testing.assert_array_equal(getattr(curve, column), getattr(one, column))


@pytest.mark.parametrize("etas, message", [
    ([], "eta grid must be a nonempty 1-D list of etas"),
    ([1.0, 0.5], "eta grid must be strictly ascending; eta grid has 0.5 after 1.0"),
    ([0.5, 0.5], "eta grid must be strictly ascending; eta grid has 0.5 after 0.5"),
], ids=["empty", "descending", "repeated"])
def test_risk_curves_check_the_grid_before_any_solve(monkeypatch, etas, message):
    # [] raised a raw TypeError, and a descending or repeated grid was solved
    # in full before RiskCurve refused it
    monkeypatch.setattr(riskengine, "solve_effective", mock.Mock(side_effect=AssertionError))
    with pytest.raises(InputError) as exc:
        risk_curves(iso_problem(), KINDS, etas)
    assert str(exc.value) == message


@pytest.mark.parametrize("etas, message", [
    ([[0.5, 1.0]], "eta grid must be a nonempty 1-D list of etas"),
    (["a"], "malformed eta grid: expected a list of real numbers, got an entry of type str"),
], ids=["2-D", "str"])
def test_solve_grid_refuses_a_grid_that_is_not_1d_reals(monkeypatch, etas, message):
    # a 2-D grid raised a raw TypeError, ["a"] a raw ValueError
    monkeypatch.setattr(riskengine, "solve_effective", mock.Mock(side_effect=AssertionError))
    with pytest.raises(InputError) as exc:
        riskengine.solve_grid(iso_problem(), etas)
    assert str(exc.value) == message


def test_risk_curve_with_a_nan_cell_is_a_numerical_error():
    etas = np.array([0.0, 0.5, 1.0])
    rmt = np.array([1.0, np.nan, 2.0])
    with pytest.raises(NumericalError, match=r"est risk column 'rmt'.*eta = 0\.5"):
        RiskCurve(etas, RiskKind.EST, np.ones(3), rmt, np.ones(3))
    with pytest.raises(NumericalError, match=r"'derivative'.*eta = 1\.0"):
        RiskCurve(etas, RiskKind.PRED, np.ones(3), np.ones(3), np.array([0, 1, np.inf]))


@st.composite
def theory_problems(draw):
    """Problems on all three model kinds, explicit spectra with condition up to 1e8."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["isotropic", "spiked_uniform", "explicit"]))
    level = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    if kind == "isotropic":
        model = Isotropic(draw(level), n)
    elif kind == "spiked_uniform":
        model = spiked_uniform(draw(level), draw(level), n)
    else:
        log_cond = draw(st.floats(0.0, 8.0))
        lam = np.sort(draw(level) * 10.0 ** (log_cond * rng.uniform(0.0, 1.0, n)))
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0] if draw(st.booleans()) else None
        model = Explicit(lam[::-1], basis)
    if draw(st.booleans()):
        phi, eta = draw(st.floats(0.05, 0.95)), 0.0
    else:
        phi, eta = draw(st.floats(0.05, 5.0)), 10.0 ** draw(st.floats(-3.0, 2.0))
    return ProblemConfig(
        phi=phi,
        eta=eta,
        sigma_sq=draw(st.floats(0.0, 2.0)),
        model=model,
        mu0=SignalVector(rng.standard_normal(n)),
    )


@settings(max_examples=40, deadline=None)
@given(config=theory_problems())
def test_risks_from_solved_sums_match_separate_functionals(config):
    # theoretical_risk and derivative_factor read params.sums, the solve's
    # one post-solve pass; the reference rebuilds each closed form from
    # trace_functional and quad_form at the same tau
    params = solve_effective(config)
    model, mu0, phi = config.model, config.mu0, config.phi
    tau, gamma_sq, eta = params.tau_star, params.gamma_star_sq, params.eta

    def tf(p, q):
        return trace_functional(model, tau, p, q)

    res = eta * eta * gamma_sq / (tau * tau)
    risks = {
        RiskKind.PRED: tau * tau * quad_form(model, mu0, tau, 1, 1) + gamma_sq * tf(2, 2),
        RiskKind.EST: tau * tau * quad_form(model, mu0, tau, 1, 0) + gamma_sq * tf(2, 1),
        RiskKind.INS: res + config.sigma_sq * (phi - 2.0 * eta / tau),
        RiskKind.RES: res,
    }
    g0 = eta + tau * tau * tf(2, 1)
    tau_p = tau / g0
    tau_s = -2.0 * tau * tau * tau_p * tf(3, 2) / (g0 * g0)
    factors = {
        RiskKind.PRED: -phi * tau_s,
        RiskKind.EST: 2.0 * tau_p * tau_p * (tf(3, 1) + tau_p * tf(2, 1) * tf(3, 2)),
        RiskKind.INS: (2.0 * tau_p * tau_p / (tau * tau))
        * (eta * eta * tau_p * tf(3, 2) + tau**3 * tf(2, 1) ** 2),
    }
    for kind, want in risks.items():
        got = theoretical_risk(kind, params)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), kind
    for kind, want in factors.items():
        assert derivative_factor(kind, params) == pytest.approx(
            want, rel=1e-13, abs=0.0
        ), kind


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_stacked_risk_formulas_are_the_per_params_calls(seed):
    # each formula, and each property derived from the stored fields, on the
    # grid's params stacked into arrays gives, bit for bit, the values of one
    # call per solve, at every kind
    config = random_problem(np.random.default_rng(seed), n=30)
    etas = np.geomspace(0.01, 20.0, 41)
    params = riskengine.solve_grid(config, etas)
    grid = riskengine._stacked(params)
    for kind in KINDS:
        formulas = [theoretical_risk, rmt_risk]
        if kind in riskengine.TUNABLE_KINDS:
            formulas.append(risk_derivative)
        for formula in formulas:
            stacked = formula(kind, grid)
            one = np.array([formula(kind, p) for p in params])
            assert np.array_equal(stacked, one), (kind, formula.__name__)
    for name in ("m_val", "m_prime", "m_second", "gamma_tilde_sq"):
        one = np.array([getattr(p, name) for p in params])
        assert np.array_equal(getattr(grid, name), one), name


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_formulas_read_the_problem_from_the_params(seed):
    # each formula equals the same closed form fed the problem's scalars
    # beside the params: bit for bit, but for the PRED derivative, whose phi
    # was recovered as m' tau^2 / tau' and is now the problem's own
    config = random_problem(np.random.default_rng(seed), n=30)
    for eta in (0.05, 0.7, 3.0):
        params = solve_effective(config.with_eta(eta))
        for kind in KINDS:
            theo, rmt, deriv = risks_from_scalars(
                kind, params, config.sigma_sq, config.mu0.norm_sq, config.phi
            )
            assert theoretical_risk(kind, params) == theo, kind
            assert rmt_risk(kind, params) == rmt, kind
            if kind == RiskKind.PRED:
                assert risk_derivative(kind, params) == pytest.approx(deriv, rel=1e-15, abs=0)
            elif kind != RiskKind.RES:
                assert risk_derivative(kind, params) == deriv, kind


def test_lq_gamma_diag_reads_the_norm_from_the_params():
    config = iso_problem(eta=0.5, radius=0.6)
    params = solve_effective(config)
    tau, s0 = params.tau_star, config.mu0.norm_sq
    # isotropic at scale 1: (gamma~^2 + tau^2 ||mu0||^2) / (1 + tau)^2 on each coordinate
    want = (params.gamma_tilde_sq + tau * tau * s0) / (1.0 + tau) ** 2
    np.testing.assert_allclose(lq_gamma_diag(None, config.model, params), want, rtol=1e-15)


def test_no_formula_takes_the_problem_beside_its_params():
    # phi, sigma_sq and ||mu0|| are read off EffectiveParams, so no exported
    # callable that takes one can be handed a second, mismatched copy
    readers = set()
    for name in ridgelab.__all__:
        obj = getattr(ridgelab, name)
        if not callable(obj) or isinstance(obj, type):
            continue
        parameters = inspect.signature(obj).parameters
        if any("EffectiveParams" in str(par.annotation) for par in parameters.values()):
            readers.add(name)
            copies = {"phi", "sigma_sq", "mu_norm_sq", "mu_norm"} & set(parameters)
            assert not copies, (name, copies)
    assert {"theoretical_risk", "rmt_risk", "risk_derivative", "derivative_factor",
            "lq_gamma_diag"} <= readers


def test_risk_curves_call_each_formula_once_per_kind(monkeypatch):
    calls = []
    for name in ("theoretical_risk", "rmt_risk", "risk_derivative"):
        def counted(kind, *args, _name=name, _formula=getattr(riskengine, name)):
            calls.append((_name, kind))
            return _formula(kind, *args)

        monkeypatch.setattr(riskengine, name, counted)
    config = random_problem(np.random.default_rng(4), n=30)
    curves = risk_curves(config, KINDS, np.linspace(0.1, 1.5, 161))
    assert sorted(calls) == sorted(
        [("theoretical_risk", kind) for kind in KINDS] + [("rmt_risk", kind) for kind in KINDS]
        + [("risk_derivative", kind) for kind in riskengine.TUNABLE_KINDS]
    )
    assert all(curve.theoretical.shape == (161,) for curve in curves.values())
