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
    as_signal,
    check_model,
    fixed_point_sums,
    quad_form,
    resolvent_sums,
    trace_functional,
)

# doubling steps allowed when rounding puts tau_bounds' hi below the root
_MAX_WIDEN = 60
_MAX_NEWTON = 100
_TOL = 1e-12  # the Newton stop, on a step's size relative to u = 1/tau


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
        check_model(self.model, "'model'")
        object.__setattr__(self, "mu0", as_signal(self.mu0))
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

    phi, sigma_sq, model and mu0 are the solved problem's, so a params holds
    every ProblemConfig field and every risk formula reads the problem from
    here. sums holds the spectral sums at tau_star the solve gathered, from
    which every risk formula is read without another pass over the spectrum.
    The properties are closed forms of the fields, so they hold the same on
    the params of a grid, whose fields other than model and mu0 are arrays
    (riskengine.solve_grid).
    """

    eta: float
    tau_star: float
    gamma_star_sq: float
    tau_prime: float
    tau_second: float
    phi: float
    sigma_sq: float
    model: CovarianceModel
    mu0: SignalVector
    sums: FixedPointSums

    @property
    def mu_norm_sq(self) -> float:
        """||mu0||^2."""
        return self.mu0.norm_sq

    @property
    def m_val(self) -> float:
        """The companion Stieltjes transform at z = -eta/phi: m = 1/tau."""
        return 1.0 / self.tau_star

    @property
    def m_prime(self) -> float:
        """m' = phi tau'/tau^2."""
        return self.phi * self.tau_prime / (self.tau_star * self.tau_star)

    @property
    def m_second(self) -> float:
        """m'' = -phi^2 (tau'' tau - 2 tau'^2)/tau^3."""
        tau, tau_p, phi = self.tau_star, self.tau_prime, self.phi
        # float_power is libm pow, as a float's ** is; numpy's ** on an array may round apart
        return -phi * phi * (self.tau_second * tau - 2.0 * tau_p * tau_p) / np.float_power(tau, 3)

    @property
    def gamma_tilde_sq(self) -> float:
        """sigma_sq tau' + ||mu0||^2 (tau - eta tau').

        Equals gamma_star^2 exactly for isotropic covariances; elsewhere it is
        the signal-averaged surrogate entering the l_q risk weights.
        """
        tau_p = self.tau_prime
        return self.sigma_sq * tau_p + self.mu_norm_sq * (self.tau_star - self.eta * tau_p)


def expected_err(model: CovarianceModel, mu0, gamma_sq: float, tau: float) -> float:
    """Mean squared prediction error of the sequence-model ridge estimator.

    tau^2 ||(Sigma+tau I)^{-1} Sigma^{1/2} mu0||^2 + gamma^2 T_{-2,2}(tau).
    """
    check_model(model, "model")
    check_scale(gamma_sq, "gamma_sq")
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
    check_model(model, "model")
    check_scale(gamma_sq, "gamma_sq")
    check_positive(tau, "tau")
    return gamma_sq * trace_functional(model, tau, 1, 1)


def tau_bounds(config: ProblemConfig) -> tuple[float, float]:
    """A-priori bracket [lo, hi] containing tau_star, in O(log blocks).

    lo is the positive root of H tau^2 - (1 - phi) tau - eta = 0, with H the
    reciprocal harmonic mean: (1 - phi + sqrt((1-phi)^2 + 4 H eta)) / (2 H),
    taken in the rationalized form 2 eta / (phi - 1 + sqrt(...)) when
    phi > 1, where the first form cancels at small eta.

    hi minimizes R(k) = (sum_{j>k} lambda_j + n eta) / (m - k) over integers
    0 <= k <= k_max = min(ceil(m) - 1, n), so m - k > 0 also when the sample
    count m = phi * n is non-integral. Across a block of c equal eigenvalues
    lambda from k = s to s + c the ratio is (C - lambda k)/(m - k), monotone,
    so its minimum over the block is at a boundary (if k_max falls inside
    the block, s + c >= m and the ratio is nondecreasing up to k_max). Over
    the boundaries k_j of model.pairs() up to k_max, with T_j the tail sum
    at k_j and lambda_j the j-th block's eigenvalue, R(j+1) - R(j) has the
    sign of g(j) = T_j + n eta - lambda_j (m - k_j), and
    g(j+1) - g(j) = (lambda_j - lambda_{j+1}) (m - k_{j+1}) >= 0. So R falls
    while g < 0 and rises after: hi is R at the first boundary with g >= 0,
    or at the last admissible one, found by bisection. H, the block
    eigenvalues and the per-block sums are cached on the model, so a call
    builds no array and costs O(log(number of blocks)).
    """
    if config.eta == 0 and config.phi >= 1:
        raise NoSolution(
            "eta = 0 requires phi < 1: the interpolating solution exists "
            "only in the overparametrized regime m < n"
        )
    model = config.model
    h = model.inv_harmonic_mean
    one_minus = 1.0 - config.phi
    root = math.sqrt(one_minus * one_minus + 4.0 * h * config.eta)
    if one_minus < 0:
        lo = 2.0 * config.eta / (root - one_minus)
    else:
        lo = (one_minus + root) / (2.0 * h)

    n = model.n
    m = config.phi * n
    shift = n * config.eta
    k_max = min(int(np.ceil(m)) - 1, n)
    lam, starts, tails = model.block_values, model.block_starts, model.tail_sums
    # bisect boundaries 0 .. blocks - 1 for the first j with g(j) >= 0
    first, last = 0, int(np.searchsorted(starts, k_max, side="right")) - 1
    while first < last:
        j = (first + last) // 2
        if tails[j] + shift >= lam[j] * (m - starts[j]):
            last = j
        else:
            first = j + 1
    return lo, float((tails[first] + shift) / (m - starts[first]))


def _f_and_slope(config: ProblemConfig, u: float) -> tuple[float, float]:
    """F(u) and F'(u) for the root problem in u = 1/tau, from one pass.

    resolvent_sums gives T_{-1,1} - phi summed from the smaller of T_{-1,1}
    and tau T_{-1,0} = 1 - T_{-1,1}, so near phi = 1 at eta = 0, where
    T_{-1,1} -> 1, tau keeps full relative accuracy; it sums T_{-1,0} only
    on that branch.
    """
    tau = 1.0 / u
    excess, t21 = resolvent_sums(config.model, tau, config.phi)
    return excess + config.eta * u, tau * tau * t21 + config.eta


def solve_tau(config: ProblemConfig, start: EffectiveParams | None = None) -> float:
    """Root of T_{-1,1}(tau) + eta/tau = phi, by monotone Newton in u = 1/tau.

    Starts at u = 1/hi from tau_bounds, halving u in the rare case rounding
    leaves F(1/hi) above zero, and stops once a Newton step moves u by at
    most _TOL * u. F is concave, so the iterates increase to the root and the
    error after that step is of order _TOL^2, a few ulps of tau*. Exact
    iterates keep F <= 0; a computed F >= 0 means rounding has reached the
    root, which also stops.

    start, the params solved at another eta of the same problem, moves the
    first iterate to u_0 = 1/tau_0 on the tangent
    tau_0 = start.tau_star + (eta - start.eta) start.tau_prime when
    lo <= tau_0 < hi. tau* is concave in eta, so tau_0 >= tau* and u_0 is
    left of the root. A hint that is not (another phi or model, rounding)
    shows as tau_0 outside [lo, hi) or as F(u_0) > 0, and the solve then
    starts from 1/hi as without one: a hint changes the number of passes,
    never the root beyond rounding.
    """
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
        if step <= _TOL * u:
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


def solve_effective(
    config: ProblemConfig, start: EffectiveParams | None = None
) -> EffectiveParams:
    """Solve the full fixed-point system and derived scalars at one eta.

    start, the params solved at a neighbouring eta of the same problem,
    warm-starts the root search (see solve_tau).
    """
    tau = solve_tau(config, start)
    sums = fixed_point_sums(config.model, config.mu0, tau)
    gamma_sq = _gamma_sq(config, tau, sums)
    tau_p, tau_s = _derivatives(config.eta, tau, sums)

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
        phi=config.phi,
        sigma_sq=config.sigma_sq,
        model=config.model,
        mu0=config.mu0,
        sums=sums,
    )
