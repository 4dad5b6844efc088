"""Effective regularization and effective noise of ridge(less) regression.

For aspect ratio phi = m/n, regularization eta >= 0, noise level sigma_sq
and signal mu0, the pair (tau_star, gamma_star_sq) solves the system

    phi * gamma^2          = sigma_sq + E_err(gamma; tau)
    (phi - eta/tau) * gamma^2 = E_dof(gamma; tau)

which reduces to a scalar root problem for tau, followed by a closed form
for gamma^2. In u = 1/tau the root problem reads

    F(u) = T_{-1,1}(1/u) + eta u - phi = 0,

and every term of F is increasing and concave in u (each eigenvalue
contributes lambda u / (lambda u + 1)). Newton's method started left of the
root, where F <= 0, therefore climbs to the root monotonically and never
overshoots it; each step is one pass over the spectrum for T_{-1,1} and
F'(u) = tau^2 T_{-2,1} + eta. A cold solve starts at u = 1/hi from
tau_bounds. Along an eta grid each solve starts instead from the tangent of
the neighbouring root, tau_0 = tau*(eta') + (eta - eta') tau'(eta'): tau* is
concave in eta (tau'' < 0), so the tangent lies above tau* on both sides of
eta' and u_0 = 1/tau_0 is again left of the root, only much closer to it
than 1/hi. A solution exists
for eta > 0 with any shapes, and for eta = 0 only in the overparametrized
regime phi < 1. The noiseless case sigma_sq = 0 runs through the same code
path and is well posed under the same regime condition.

All derivative quantities (tau', tau'', Stieltjes values) are closed
forms, never finite differences; finite differences appear only as test
oracles. The closed forms read the spectral sums at tau_star, which
solve_effective gathers in one more pass (spectrum.fixed_point_sums).

This module solves at one eta. The walk along an eta grid, which threads
each root into the next solve as its start, is riskengine.solve_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDenominator, InputError, NonConvergence, NoSolution
from .errors import check_eta, check_phi, check_positive, check_scale
from .spectrum import (
    CovarianceModel,
    FixedPointSums,
    SignalVector,
    fixed_point_sums,
    harmonic_mean,
    quad_form,
    resolvent_sums,
    trace_functional,
)

# doubling steps allowed when rounding puts tau_bounds' hi below the root
_MAX_WIDEN = 60
_MAX_NEWTON = 100


@dataclass(frozen=True)
class ProblemConfig:
    """One theory-side problem instance.

    phi is the aspect ratio m/n. eta = 0 is meaningful only when phi < 1;
    that regime check is enforced where the solve happens (tau_bounds), so
    diagnostics can still inspect the config itself. phi, eta, sigma_sq and
    ||mu0||^2 (cached, so with_eta stays O(1)) are held to their bands.
    """

    phi: float
    eta: float
    sigma_sq: float
    model: CovarianceModel
    mu0: SignalVector

    def __post_init__(self):
        check_scale(self.mu0.norm_sq, "squared norm of 'mu0'")
        check_phi(self.phi, "'phi'")
        check_eta(self.eta, "'eta'")
        check_scale(self.sigma_sq, "'sigma_sq'")
        if self.mu0.n != self.model.n:
            raise InputError(
                f"signal dimension {self.mu0.n} != model dimension {self.model.n}"
            )

    def with_eta(self, eta: float) -> "ProblemConfig":
        return replace(self, eta=float(eta))


@dataclass(frozen=True)
class EffectiveParams:
    """Solved effective quantities at one regularization level.

    m_val, m_prime, m_second are the companion Stieltjes transform and its
    first two derivatives at z = -eta/phi; m_val * tau_star = 1. sums holds
    the spectral sums at tau_star the solve gathered, from which every risk
    formula is read without another pass over the spectrum.
    """

    eta: float
    tau_star: float
    gamma_star_sq: float
    tau_prime: float
    tau_second: float
    gamma_tilde_sq: float
    m_val: float
    m_prime: float
    m_second: float
    sums: FixedPointSums


def expected_err(model: CovarianceModel, mu0, gamma_sq: float, tau: float) -> float:
    """Mean squared prediction error of the sequence-model ridge estimator.

    tau^2 ||(Sigma+tau I)^{-1} Sigma^{1/2} mu0||^2 + gamma^2 T_{-2,2}(tau).
    """
    check_positive(tau, "tau")
    signal = quad_form(model, mu0, tau, 1, 1)
    return bias_variance(gamma_sq, tau, signal, trace_functional(model, tau, 2, 2))


def bias_variance(gamma_sq: float, tau: float, signal: float, trace: float) -> float:
    """tau^2 signal + gamma^2 trace, the sequence-model ridge error.

    With the q = 1 signal form and T_{-2,2} it is the prediction error
    (expected_err); with the q = 0 form and T_{-2,1}, the estimation error.
    """
    return tau * tau * signal + gamma_sq * trace


def expected_dof(model: CovarianceModel, gamma_sq: float, tau: float) -> float:
    """gamma^2 T_{-1,1}(tau), the effective degrees-of-freedom functional."""
    check_positive(tau, "tau")
    return gamma_sq * trace_functional(model, tau, 1, 1)


def tau_bounds(config: ProblemConfig) -> tuple[float, float]:
    """A-priori bracket [lo, hi] containing tau_star.

    lo = (1 - phi + sqrt((1-phi)^2 + 4 H eta)) / (2 H) with H the reciprocal
    harmonic mean; hi minimizes (sum_{j>k} lambda_j + n eta) / (m - k) over
    integers 0 <= k <= k_max = min(ceil(m) - 1, n), so m - k > 0 also when
    the sample count m = phi * n is non-integral. Only the block boundaries
    of model.pairs() up to k_max are evaluated: across a block of c equal
    eigenvalues lambda from k = s to s + c the ratio is (C - lambda k)/(m - k),
    monotone with the sign of C - lambda m >= lambda (s + c - m) + n eta, so
    its minimum over the block is at a boundary; and if k_max falls inside
    the block then s + c >= ceil(m) >= m, the ratio is nondecreasing up to
    k_max and its minimum is at s. H and the per-block sums are cached on
    the model, so a call costs O(number of distinct eigenvalues).
    """
    if config.eta == 0 and config.phi >= 1:
        raise NoSolution(
            "eta = 0 requires phi < 1: the interpolating solution exists "
            "only in the overparametrized regime m < n"
        )
    model = config.model
    h = harmonic_mean(model)
    one_minus = 1.0 - config.phi
    lo = (one_minus + math.sqrt(one_minus * one_minus + 4.0 * h * config.eta)) / (2.0 * h)

    n = model.n
    m = config.phi * n
    k_max = min(int(np.ceil(m)) - 1, n)
    starts = model.block_starts
    blocks = int(np.searchsorted(starts, k_max, side="right"))
    hi = float(np.min(
        (model.tail_sums[:blocks] + n * config.eta) / (m - starts[:blocks])
    ))
    return lo, hi


def _f_and_slope(config: ProblemConfig, u: float) -> tuple[float, float]:
    """F(u) and F'(u) for the root problem in u = 1/tau.

    T_{-1,1} = 1 - tau T_{-1,0} exactly, and F is summed from the smaller of
    the two: near phi = 1 at eta = 0, where T_{-1,1} -> 1, the terms that
    cancel at the root are then 1 - phi and tau T_{-1,0}, both small, and
    tau keeps full relative accuracy.
    """
    tau = 1.0 / u
    t10, t11, t21 = resolvent_sums(config.model, tau)
    if t11 <= 0.5:
        f = t11 - config.phi
    else:
        f = (1.0 - config.phi) - tau * t10
    return f + config.eta * u, tau * tau * t21 + config.eta


def solve_tau(
    config: ProblemConfig, tol: float = 1e-12, start: EffectiveParams | None = None
) -> float:
    """Root of T_{-1,1}(tau) + eta/tau = phi, by monotone Newton in u = 1/tau.

    Starts at u = 1/hi from tau_bounds, halving u in the rare case rounding
    leaves F(1/hi) above zero, and stops once a Newton step moves u by at
    most tol * u. F is concave, so the iterates increase to the root and the
    error after that step is of order tol^2. Exact iterates keep F <= 0; a
    computed F >= 0 means rounding has reached the root, which also stops.

    start, the params solved at another eta of the same problem, moves the
    first iterate to u_0 = 1/tau_0 on the tangent
    tau_0 = start.tau_star + (eta - start.eta) start.tau_prime when
    lo <= tau_0 < hi. tau* is concave in eta, so tau_0 >= tau* and u_0 is
    left of the root. A hint that is not (another phi or model, rounding)
    shows as tau_0 outside [lo, hi) or as F(u_0) > 0, and the solve then
    starts from 1/hi as without one: a hint changes the number of passes,
    never the root beyond rounding.
    """
    check_positive(tol, "tol")
    lo, hi = tau_bounds(config)
    u, f, slope = 1.0 / hi, math.inf, 0.0
    if start is not None:
        tau0 = start.tau_star + (config.eta - start.eta) * start.tau_prime
        if lo <= tau0 < hi:
            f, slope = _f_and_slope(config, 1.0 / tau0)
            if f <= 0:
                u = 1.0 / tau0
    if f > 0:
        f, slope = _f_and_slope(config, u)
    widen = 0
    while f > 0:
        if widen == _MAX_WIDEN:
            raise NonConvergence("could not start the fixed-point solver below the root")
        u *= 0.5
        f, slope = _f_and_slope(config, u)
        widen += 1
    for _ in range(_MAX_NEWTON):
        if f >= 0:
            return 1.0 / u
        step = -f / slope
        u += step
        if step <= tol * u:
            return 1.0 / u
        f, slope = _f_and_slope(config, u)
    raise NonConvergence(f"fixed-point solver exhausted {_MAX_NEWTON} Newton steps")


def _gamma_sq(config: ProblemConfig, tau: float, sums: FixedPointSums) -> float:
    """gamma_star^2 at tau_star; the denominator equals phi - T_{-2,2}(tau)
    at the root but does not suffer its cancellation."""
    num = config.sigma_sq + tau * tau * sums.signal
    den = config.eta / tau + tau * sums.t21
    if den <= 1e-14:
        raise DegenerateDenominator(
            f"gamma^2 denominator {den} is not positive; inconsistent inputs"
        )
    return num / den


def _derivatives(eta: float, tau: float, sums: FixedPointSums) -> tuple[float, float]:
    """(d tau/d eta, d^2 tau/d eta^2) from closed forms.

    tau' = tau / G0 with G0 = eta + tau^2 T_{-2,1}(tau);
    tau'' = -2 tau^2 tau' T_{-3,2}(tau) / G0^2.
    """
    g0 = eta + tau * tau * sums.t21
    tau_prime = tau / g0
    tau_second = -2.0 * tau * tau * tau_prime * sums.t32 / (g0 * g0)
    return tau_prime, tau_second


def gamma_tilde_sq(
    sigma_sq: float, mu_norm_sq: float, eta: float, tau_star: float, tau_prime: float
) -> float:
    """sigma_sq * tau' + ||mu0||^2 (tau - eta tau').

    Equals gamma_star^2 exactly for isotropic covariances; elsewhere it is
    the signal-averaged surrogate entering the l_q risk weights.
    """
    return sigma_sq * tau_prime + mu_norm_sq * (tau_star - eta * tau_prime)


def stieltjes_at(
    phi: float, tau_star: float, tau_prime: float, tau_second: float
) -> tuple[float, float, float]:
    """Companion Stieltjes transform and derivatives at z = -eta/phi.

    m = 1/tau, m' = phi tau'/tau^2, m'' = -phi^2 (tau'' tau - 2 tau'^2)/tau^3.
    """
    check_positive(tau_star, "tau_star")
    m_val = 1.0 / tau_star
    m_prime = phi * tau_prime / (tau_star * tau_star)
    m_second = (
        -phi
        * phi
        * (tau_second * tau_star - 2.0 * tau_prime * tau_prime)
        / tau_star**3
    )
    return m_val, m_prime, m_second


def solve_effective(
    config: ProblemConfig, tol: float = 1e-12, start: EffectiveParams | None = None
) -> EffectiveParams:
    """Solve the full fixed-point system and derived scalars at one eta.

    start, the params solved at a neighbouring eta of the same problem,
    warm-starts the root search (see solve_tau).
    """
    tau = solve_tau(config, tol, start)
    sums = fixed_point_sums(config.model, config.mu0, tau)
    gamma_sq = _gamma_sq(config, tau, sums)
    tau_p, tau_s = _derivatives(config.eta, tau, sums)
    gt_sq = gamma_tilde_sq(config.sigma_sq, config.mu0.norm_sq, config.eta, tau, tau_p)
    m_val, m_prime, m_second = stieltjes_at(config.phi, tau, tau_p, tau_s)

    scale = max(1.0, config.phi * gamma_sq)
    # expected_err and expected_dof at the root, read from the same sums
    err = bias_variance(gamma_sq, tau, sums.signal, sums.t22)
    res1 = config.phi * gamma_sq - config.sigma_sq - err
    res2 = (config.phi - config.eta / tau) * gamma_sq - gamma_sq * sums.t11
    # written so that a NaN residual (an overflowed gamma^2) fails too
    bound = 1e-10 * scale
    if not (abs(res1) <= bound and abs(res2) <= bound):
        raise NonConvergence(
            f"fixed-point residuals ({res1:.3e}, {res2:.3e}) at eta = {config.eta!r} "
            "exceed 1e-10 relative"
        )
    return EffectiveParams(
        eta=config.eta,
        tau_star=tau,
        gamma_star_sq=gamma_sq,
        tau_prime=tau_p,
        tau_second=tau_s,
        gamma_tilde_sq=gt_sq,
        m_val=m_val,
        m_prime=m_prime,
        m_second=m_second,
        sums=sums,
    )
