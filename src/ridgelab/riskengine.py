"""Risk functionals of ridge(less) regression in the proportional regime.

Four risks are tracked: out-of-sample prediction, parameter estimation,
in-sample prediction, and the residual norm. Each has a deterministic
"theoretical" form in terms of the effective pair (tau, gamma) and a
random-matrix form in terms of the companion Stieltjes transform. The two
coincide exactly for isotropic covariances and agree to o(1) generally.

Conventions used throughout:
  * signal strength is carried as the pair (sigma_sq, mu_norm_sq), never
    as their ratio, so the noiseless case is exact;
  * eta, phi, sigma_sq and mu_norm_sq are read from the solved
    EffectiveParams rather than passed twice, and so are the spectral sums
    at tau_star (params.sums): evaluating a risk after the solve makes no
    new pass over the spectrum;
  * solve_grid is the one walk along an eta grid, and risk_curves reads
    every risk kind off it, each formula called once on the grid's params
    stacked into one EffectiveParams of arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import SCALE_RANGE, BothZero, InputError, NumericalError, check_all, check_positive
from .errors import _grid_array, check_eta_grid, check_phi, check_size, coerce
from .fixedpoint import EffectiveParams, ProblemConfig, bias_variance, solve_effective
from .spectrum import CovarianceModel, FixedPointSums, SpikedUniform
# unused here; ridgebench/tracer.py wraps these names at this module
from .spectrum import quad_form, trace_functional  # noqa: F401

_DENSE_A_GUARD = 5000


class RiskKind(str, enum.Enum):
    PRED = "pred"
    EST = "est"
    INS = "ins"
    RES = "res"


# the kinds with a derivative factor; they share the minimizer sigma_sq / ||mu0||^2
TUNABLE_KINDS = (RiskKind.PRED, RiskKind.EST, RiskKind.INS)


@dataclass(frozen=True)
class RiskCurve:
    """Risk values along an ascending eta grid (risk_curves checks it).

    derivative is None for the residual kind, which has no derivative
    factor representation.
    """

    etas: np.ndarray
    kind: RiskKind
    theoretical: np.ndarray
    rmt: np.ndarray
    derivative: np.ndarray | None

    def __post_init__(self):
        cols = [self.theoretical, self.rmt]
        if self.derivative is not None:
            cols.append(self.derivative)
        for name, col in zip(("theoretical", "rmt", "derivative"), cols):
            if col.shape != self.etas.shape:
                raise InputError("risk curve columns must share the grid length")
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise NumericalError(
                    f"{RiskKind(self.kind).value} risk column {name!r} is not finite "
                    f"at eta = {float(self.etas[bad[0]])!r}"
                )


def theoretical_risk(kind: RiskKind, params: EffectiveParams) -> float | np.ndarray:
    """Deterministic risk from the effective pair (tau, gamma).

    PRED = tau^2 ||(Sigma+tau I)^{-1} Sigma^{1/2} mu0||^2 + gamma^2 T_{-2,2},
    EST = tau^2 ||(Sigma+tau I)^{-1} mu0||^2 + gamma^2 T_{-2,1}, RES =
    eta^2 gamma^2 / tau^2 and INS = RES + sigma_sq (phi - 2 eta/tau).
    """
    tau = params.tau_star
    gamma_sq = params.gamma_star_sq
    eta = params.eta
    sums = params.sums
    if kind == RiskKind.PRED:
        return bias_variance(gamma_sq, tau, sums.signal, sums.t22)
    if kind == RiskKind.EST:
        return bias_variance(gamma_sq, tau, sums.signal0, sums.t21)
    res = eta * eta * gamma_sq / (tau * tau)
    if kind == RiskKind.RES:
        return res
    if kind == RiskKind.INS:
        return res + params.sigma_sq * (params.phi - 2.0 * eta / tau)
    raise InputError(f"unknown risk kind {kind!r}")


def rmt_risk(kind: RiskKind, params: EffectiveParams) -> float | np.ndarray:
    """Stieltjes-transform representation of the asymptotic risk.

    All four kinds share the combination
        core = phi ||mu0||^2 m - (eta ||mu0||^2 - sigma_sq) m',
    which equals phi gamma^2 m^2 at the fixed point.
    """
    m_val, m_prime = params.m_val, params.m_prime
    eta, phi, sigma_sq, s0 = params.eta, params.phi, params.sigma_sq, params.mu_norm_sq
    core = phi * s0 * m_val - (eta * s0 - sigma_sq) * m_prime
    if kind == RiskKind.PRED:
        return core / (m_val * m_val) - sigma_sq
    if kind == RiskKind.EST:
        return s0 * (1.0 - phi) + sigma_sq * m_val + (eta / phi) * (
            eta * s0 - sigma_sq
        ) * m_prime
    if kind == RiskKind.RES:
        return eta * eta * core / phi
    if kind == RiskKind.INS:
        return eta * eta * core / phi + sigma_sq * (phi - 2.0 * eta * m_val)
    raise InputError(f"unknown risk kind {kind!r}")


def derivative_factor(kind: RiskKind, params: EffectiveParams) -> float | np.ndarray:
    """Positive factor M^#(eta) multiplying (eta ||mu0||^2 - sigma_sq).

    The residual kind has no such factor and is rejected.
    """
    tau = params.tau_star
    tau_p = params.tau_prime
    sums = params.sums
    if kind == RiskKind.PRED:
        return params.phi * (-params.tau_second)
    if kind == RiskKind.EST:
        return 2.0 * tau_p * tau_p * (sums.t31 + tau_p * sums.t21 * sums.t32)
    if kind == RiskKind.INS:
        eta = params.eta
        # float_power is libm pow, as a float's ** is; numpy's ** on an array may round apart
        return (2.0 * tau_p * tau_p / (tau * tau)) * (
            eta * eta * tau_p * sums.t32 + np.float_power(tau, 3) * sums.t21 * sums.t21
        )
    raise InputError(f"no derivative factor for risk kind {kind!r}")


def risk_derivative(kind: RiskKind, params: EffectiveParams) -> float | np.ndarray:
    """d/d eta of the RMT risk: (eta ||mu0||^2 - sigma_sq) M^#(eta).

    Vanishes exactly at eta = sigma_sq/||mu0||^2 and carries that sign, so
    the three tunable risks share one minimizer.
    """
    factor = derivative_factor(kind, params)
    return (params.eta * params.mu_norm_sq - params.sigma_sq) * factor


def optimal_eta(sigma_sq: float, mu_norm_sq: float) -> float:
    """The common risk minimizer sigma_sq / ||mu0||^2.

    Zero when sigma_sq = 0 (interpolation is optimal), infinite when the
    signal vanishes but noise does not.
    """
    if not (sigma_sq >= 0 and mu_norm_sq >= 0):
        raise InputError("sigma_sq and mu_norm_sq must be nonnegative")
    if sigma_sq == 0 and mu_norm_sq == 0:
        raise BothZero("optimal eta is undefined when both sigma_sq and mu0 vanish")
    if sigma_sq == 0:
        return 0.0
    if mu_norm_sq == 0:
        return math.inf
    return sigma_sq / mu_norm_sq


def opt_risks(
    phi: float, eta_star: float, tau_at_eta_star: float
) -> tuple[float, float, float]:
    """Optimally tuned prediction, estimation and in-sample risks.

    OPT^pred = phi tau/eta - 1, OPT^est = (1-phi)/eta + 1/tau,
    OPT^ins = phi - eta/tau, all at eta = eta_star.
    """
    check_phi(phi, "phi")
    check_positive(eta_star, "eta_star")
    check_positive(tau_at_eta_star, "tau_at_eta_star")
    pred = phi * tau_at_eta_star / eta_star - 1.0
    est = (1.0 - phi) / eta_star + 1.0 / tau_at_eta_star
    ins = phi - eta_star / tau_at_eta_star
    return pred, est, ins


# Taylor coefficients psi_k / (2^(k+1) (k+1)!) of (lgamma(1/2 + q/2) - lgamma(1/2)) / q,
# psi_k the k-th derivative of digamma at 1/2. At _SMALL_Q the direct form's
# cancellation (a few 1e-16 / q) and the dropped O(q^5) term stay below 3e-13.
_SMALL_Q = 3e-3
_LOG_M_SERIES = tuple(d / (2.0 ** (k + 1) * math.factorial(k + 1)) for k, d in enumerate((
    -0.5772156649015329 - 2.0 * math.log(2.0), math.pi**2 / 2.0,
    -14.0 * 1.2020569031595942, math.pi**4, -744.0 * 1.0369277551433699,
)))


def gaussian_abs_moment(q: float) -> float:
    """M_q = sqrt(2) {Gamma((q+1)/2)/sqrt(pi)}^{1/q} for a standard normal.

    Evaluated in log space so large q does not overflow, and below _SMALL_Q
    from the series in q, which tends to sqrt(2) exp(psi(1/2) / 2) = 0.5298394...
    """
    if check_positive(q, "q") < _SMALL_Q:
        log_ratio = sum(c * q**k for k, c in enumerate(_LOG_M_SERIES))
    else:
        log_ratio = (math.lgamma((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / q
    return math.exp(0.5 * math.log(2.0) + log_ratio)


def check_lq_weight(a, model: CovarianceModel) -> np.ndarray | None:
    """a as a float array when it is an l_q weight for model: None for A = I,
    n finite nonnegative weights applied in the covariance eigenbasis
    (descending eigenvalue order), or a finite symmetric p.s.d. n x n matrix,
    allowed for n <= 5000. Each entry's square lies in SCALE_RANGE. The
    spiked_uniform bulk eigenbasis is arbitrary, so there the weights must be
    constant on the bulk, and come back as the (spike, bulk) pair that the
    model's apply and diag_fn read; model.apply(lambda _: a, v) applies them."""
    if a is None:
        return None
    n = model.n
    a = coerce(lambda v: np.asarray(v, dtype=float), a, "weight")
    if a.ndim == 2 and n > _DENSE_A_GUARD:
        raise InputError(f"dense weight path limited to n <= {_DENSE_A_GUARD}, got {n}")
    if a.shape not in ((n,), (n, n)):
        raise InputError(f"weight must have shape ({n},) or ({n}, {n}), got {a.shape}")
    with np.errstate(over="ignore"):  # an overflowed square, or inf, is refused by the band
        check_all(a * a, "squared weight entries", *SCALE_RANGE)
    if a.ndim == 1 and np.any(a < 0):
        raise InputError("eigenbasis weights must be nonnegative")
    if a.ndim == 1 and isinstance(model, SpikedUniform):
        bulk = a[1]
        if np.any(np.abs(a[1:] - bulk) > 1e-12 * max(1.0, bulk)):
            raise InputError(
                "eigenbasis weight must be constant on the spiked_uniform bulk block, "
                f"got values from {a[1:].min()} to {a[1:].max()}"
            )
        return np.array([a[0], bulk])
    if a.ndim == 2:
        scale = max(1.0, float(np.abs(a).max()))
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * scale):
            raise InputError("dense weight matrix must be symmetric")
        w = np.linalg.eigvalsh(a)
        if w[0] < -1e-10 * max(1.0, w[-1]):
            raise InputError(f"weight matrix is not positive semidefinite (min eig {w[0]})")
    return a


def lq_gamma_diag(a, model: CovarianceModel, params: EffectiveParams) -> np.ndarray:
    """Diagonal, in ambient coordinates, of the l_q second-moment matrix

        Gamma = A (Sigma+tau I)^{-1} (gamma~^2 Sigma + tau^2 ||mu0||^2 I)
                  (Sigma+tau I)^{-1} A,

    for a weight A that check_lq_weight accepts, at the params solved on model.
    """
    a = check_lq_weight(a, model)
    s0 = params.mu_norm_sq
    tau = params.tau_star
    gt_sq = params.gamma_tilde_sq

    def middle(lam):
        return (gt_sq * lam + tau * tau * s0) / (lam + tau) ** 2

    if a is None:
        return model.diag_fn(middle)
    if a.ndim == 1:
        return model.diag_fn(lambda lam: a * a * middle(lam))
    ma = model.apply(middle, a)
    return np.einsum("kj,kj->j", a, ma)


def lq_risk(q: float, diag_gamma: np.ndarray, n: int) -> float:
    """n^{-1/2} (sum_j Gamma_jj^{q/2})^{1/q} M_q.

    This is (E ||d||_q^q)^{1/q} with each coordinate d_j ~ N(0, Gamma_jj / n),
    the law of the error as n grows at fixed q. It matches the mean norm
    E ||d||_q at a finite n (seq_model_lq_mc) only while q is small against
    log n: past that the closed form grows like sqrt(q), set by rare large
    coordinates, while ||d||_q stays near max_j |d_j|.

    Summed as sqrt(g) (sum_j (Gamma_jj / g)^{q/2})^{1/q} with g = max_j
    Gamma_jj: every power is then at most 1, so a large q cannot overflow
    the sum while the risk itself is finite.
    """
    check_positive(q, "q")
    check_size(n, "n")
    diag_gamma = np.asarray(diag_gamma, dtype=float)
    if not np.all(diag_gamma >= 0):
        raise InputError("diag(Gamma) entries must be nonnegative")
    g = float(diag_gamma.max(initial=0.0))
    if g == 0.0:
        return 0.0
    total = float(np.sum((diag_gamma / g) ** (q / 2.0)))
    try:
        return math.sqrt(g) * total ** (1.0 / q) * gaussian_abs_moment(q) / math.sqrt(n)
    except OverflowError:  # a tiny q takes the risk past the float range
        return math.inf


def solve_grid(config: ProblemConfig, etas) -> list[EffectiveParams]:
    """solve_effective across a 1-D eta grid, in either order, each solve
    warm-started from the last."""
    params: list[EffectiveParams] = []
    for eta in _grid_array(etas):
        params.append(solve_effective(config.with_eta(eta), params[-1] if params else None))
    return params


def _stacked(params: list[EffectiveParams]) -> EffectiveParams:
    """The params of a grid as one EffectiveParams whose fields, and whose
    sums' fields, are arrays over the grid."""
    names = [field.name for field in fields(EffectiveParams) if field.name != "sums"]
    return EffectiveParams(
        **{name: np.array([getattr(p, name) for p in params]) for name in names},
        sums=FixedPointSums(*map(np.array, zip(*(p.sums for p in params)))),
    )


def risk_curves(config: ProblemConfig, kinds, etas) -> dict[RiskKind, RiskCurve]:
    """One solve_grid pass along an ascending grid, one RiskCurve per kind."""
    etas = check_eta_grid(etas)
    grid = _stacked(solve_grid(config, etas))
    curves = {}
    for kind in map(RiskKind, kinds):
        theo = theoretical_risk(kind, grid)
        rmt = rmt_risk(kind, grid)
        deriv = risk_derivative(kind, grid) if kind in TUNABLE_KINDS else None
        curves[kind] = RiskCurve(etas, kind, theo, rmt, deriv)
    return curves


def risk_curve(config: ProblemConfig, kind: RiskKind, etas) -> RiskCurve:
    """Solve the fixed point along a grid and evaluate one risk kind."""
    return risk_curves(config, (kind,), etas)[kind]
