"""Data-level ridge(less) regression.

Fits, empirical risks, the (tau, gamma, sigma^2) estimators, GCV and
k-fold cross-validation tuning, debiasing and coordinatewise confidence
intervals.

Normalization conventions, fixed once here:
  * the ridge loss is ||Y - X mu||^2 / (2n) + eta ||mu||^2 / 2 where n is
    the signal dimension (column count), so the normal equations read
    (X^T X / n + eta I) mu = X^T Y / n;
  * cross-validation fold fits keep the same divisor n even though the
    fold design has fewer rows;
  * r_hat = (Y - X mu_hat) / sqrt(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import IllConditioned, InputError, MissingGroundTruth, WrongRegime
from .errors import check_alpha, check_eta, check_eta_grid, check_positive, check_scale
from .riskengine import RiskKind
from .spectrum import CovarianceModel, SignalVector, sigma_quad
from .stats import z_two_sided

_RIDGE_COND_LIMIT = 1e14
_GRAM_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class Dataset:
    """A regression sample Y = X mu0 + xi with optional ground truth.

    The arrays are treated as immutable: ``sweep`` factors X once, on
    first use, and every data-side estimator reads that factorization.
    Like ProblemConfig, the constructor holds ||mu0||^2 to its band.
    """

    x: np.ndarray
    y: np.ndarray
    model: CovarianceModel
    mu0: SignalVector | None = None
    xi: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or 0 in x.shape:
            raise InputError(f"design must be a nonempty matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise InputError(f"response shape {y.shape} != ({x.shape[0]},)")
        if x.shape[1] != self.model.n:
            raise InputError(
                f"design has {x.shape[1]} columns, model dimension is {self.model.n}"
            )
        _require_finite("design 'x'", x)
        _require_finite("response 'y'", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.mu0 is not None:
            if self.mu0.n != x.shape[1]:
                raise InputError("ground-truth signal has wrong dimension")
            check_scale(self.mu0.norm_sq, "squared norm of 'mu0'")
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            if xi.shape != y.shape:
                raise InputError("noise vector has wrong shape")
            _require_finite("noise vector 'xi'", xi)
            object.__setattr__(self, "xi", xi)
        if self.mu0 is not None and self.xi is not None:
            recon = x @ self.mu0.coords + self.xi
            scale = max(1.0, float(np.abs(y).max(initial=0.0)))
            if float(np.abs(y - recon).max(initial=0.0)) > 1e-10 * scale:
                raise InputError("Y != X mu0 + xi beyond tolerance")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def phi(self) -> float:
        return self.x.shape[0] / self.x.shape[1]

    @cached_property
    def sweep(self) -> "GramSweep":
        return GramSweep(self.x, self.y)


def _require_finite(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} holds NaN or inf")


@dataclass(frozen=True)
class RidgeFit:
    eta: float
    mu_hat: np.ndarray
    r_hat: np.ndarray


@dataclass(frozen=True)
class TuningResult:
    """Grid search outcome; eta_hat is the smallest minimizer."""

    etas: np.ndarray
    objective: np.ndarray
    eta_hat: float
    method: str


@dataclass(frozen=True)
class CIReport:
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    gamma_hat: float
    coverage: float | None = None

    @property
    def lengths(self) -> np.ndarray:
        return self.upper - self.lower


def ridge_fit(data: Dataset, eta: float) -> RidgeFit:
    """Ridge solution via an SPD solve on the smaller Gram matrix."""
    if check_eta(eta) == 0:
        raise InputError(f"ridge_fit requires eta > 0, got {eta}")
    x, y, n = data.x, data.y, data.n
    m = data.m
    try:
        if m <= n:
            gram = x @ x.T / n
            gram[np.diag_indices_from(gram)] += eta
            mu = x.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), y) / n
        else:
            gram = x.T @ x / n
            gram[np.diag_indices_from(gram)] += eta
            mu = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), x.T @ y / n)
    except scipy.linalg.LinAlgError as exc:
        raise IllConditioned(f"ridge Gram factorization failed: {exc}") from exc
    return _checked_ridge_fit(data, eta, mu)


def sweep_ridge_fit(data: Dataset, eta: float) -> RidgeFit:
    """ridge_fit read off the dataset's one factorization (data.sweep)."""
    if check_eta(eta) == 0:
        raise InputError(f"sweep_ridge_fit requires eta > 0, got {eta}")
    return _checked_ridge_fit(data, eta, data.sweep.mu_hat(eta))


def _checked_ridge_fit(data: Dataset, eta: float, mu: np.ndarray) -> RidgeFit:
    """RidgeFit of mu once it meets the normal equations within 1e-8 relative."""
    x, n = data.x, data.n
    resid = data.y - x @ mu
    kkt = x.T @ resid / n - eta * mu
    if not float(np.linalg.norm(kkt)) <= 1e-8 * (1.0 + float(np.linalg.norm(mu))):
        raise IllConditioned(
            f"ridge solve inaccurate (condition likely above {_RIDGE_COND_LIMIT:.0e})"
        )
    return RidgeFit(eta=float(eta), mu_hat=mu, r_hat=resid / np.sqrt(n))


def ridgeless_fit(data: Dataset) -> RidgeFit:
    """Minimum-norm interpolator X^T (X X^T)^{-1} Y; needs m < n."""
    x, y = data.x, data.y
    m, n = data.m, data.n
    if m >= n:
        raise WrongRegime(f"ridgeless fit requires m < n, got m={m}, n={n}")
    data.sweep.require_invertible()
    mu = data.sweep.mu_hat(0.0)
    resid = y - x @ mu
    if float(np.linalg.norm(resid)) > 1e-8 * float(np.linalg.norm(y)):
        raise IllConditioned("interpolation residual beyond tolerance")
    return RidgeFit(eta=0.0, mu_hat=mu, r_hat=resid / np.sqrt(n))


def empirical_risk(kind: RiskKind, fit: RidgeFit, data: Dataset) -> float:
    if kind == RiskKind.RES:
        return float(fit.r_hat @ fit.r_hat)
    if data.mu0 is None:
        raise MissingGroundTruth(f"risk kind {kind.value!r} needs mu0")
    diff = fit.mu_hat - data.mu0.coords
    if kind == RiskKind.EST:
        return float(diff @ diff)
    if kind == RiskKind.PRED:
        return sigma_quad(data.model, diff)
    if kind == RiskKind.INS:
        xd = data.x @ diff
        return float(xd @ xd) / data.n
    raise InputError(f"unknown risk kind {kind!r}")


def df_hat(data: Dataset, eta: float) -> float:
    """tr((Sigma_hat + (eta/phi) I)^{-1} Sigma_hat) with Sigma_hat = X^T X / m.

    The sweep's spectrum is that of X X^T / n (or X^T X / n), i.e. Sigma_hat's
    nonzero part times m/n, and eta/phi = eta n/m, so the scale cancels.
    """
    check_eta(eta)
    s = data.sweep.s
    if eta == 0:
        if data.m >= data.n:
            raise WrongRegime("df at eta = 0 requires m < n")
        tol = s.max(initial=0.0) * max(data.m, data.n) * np.finfo(float).eps
        return float(np.count_nonzero(s > tol))
    return float(np.sum(s / (s + eta)))


def tau_hat(data: Dataset, eta: float) -> float:
    """Reciprocal of tr((X X^T + eta n I_m)^{-1})."""
    check_eta(eta)
    return data.sweep.tau_hat(eta)


def gamma_hat(data: Dataset, eta: float) -> float:
    """Effective-noise estimator, read off data.sweep (GramSweep.gamma_hat)."""
    check_eta(eta)
    return data.sweep.gamma_hat(eta)


def sigma_hat_sq(
    gamma_val: float,
    tau_val: float,
    eta: float,
    phi: float,
    mu_hat: np.ndarray,
    model: CovarianceModel,
) -> tuple[float, float]:
    """(raw, clamped) noise-level estimate.

    raw = gamma^2 (1 - phi + 2 eta / tau) - tau^2 ||Sigma^{-1/2} mu_hat||^2;
    finite-sample fluctuations can push raw below zero, hence the clamp.
    """
    whitened = float(mu_hat @ model.apply(lambda lam: 1.0 / lam, mu_hat))
    raw = gamma_val * gamma_val * (1.0 - phi + 2.0 * eta / tau_val) - (
        tau_val * tau_val * whitened
    )
    return raw, max(raw, 0.0)


class GramSweep:
    """Shared eigendecomposition for ridge paths over many eta values.

    Dual route (m <= n): X X^T / n = Q S Q^T, fits and residuals come from
    rescaling Q^T Y. Primal route (m > n): X^T X / n = V W V^T. Both reuse
    one O(min(m,n)^3) factorization across the whole grid; ``Dataset.sweep``
    is the one instance behind every data-side estimator of a sample.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y
        self.m, self.n = x.shape
        self.dual = self.m <= self.n
        # an overflowed Gram matrix is refused before eigh fails on it
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (x @ x.T if self.dual else x.T @ x) / self.n
        name = "X X^T" if self.dual else "X^T X"
        if not np.all(np.isfinite(gram)):
            raise IllConditioned(f"Gram matrix {name} / n is not finite (overflow)")
        try:
            s, basis = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"eigendecomposition of {name} / n failed: {exc}") from exc
        self.s = np.clip(s, 0.0, None)
        if self.dual:
            self.q = basis
            self.c = basis.T @ y
        else:
            self.v = basis
            self.b = basis.T @ (x.T @ y) / self.n

    def require_invertible(self) -> None:
        """Raise IllConditioned unless X X^T is safely invertible, as eta = 0 needs."""
        if not self.dual:
            raise IllConditioned(
                f"X X^T is singular when m > n (m={self.m}, n={self.n})"
            )
        self.require_factor_invertible()

    def require_factor_invertible(self) -> None:
        """Raise IllConditioned unless the factored Gram matrix is safely invertible.

        That is X X^T in the dual route and X^T X in the primal one: the
        matrix an eta = 0 fit inverts.
        """
        cond = self.s[-1] / self.s[0] if self.s[0] > 0 else np.inf
        if cond > _GRAM_COND_LIMIT:
            gram = "X X^T" if self.dual else "X^T X"
            raise IllConditioned(
                f"{gram} condition {cond:.3e} exceeds {_GRAM_COND_LIMIT:.0e}"
            )

    def mu_hat(self, eta: float) -> np.ndarray:
        if self.dual:
            return self.x.T @ (self.q @ (self.c / (self.s + eta))) / self.n
        return self.v @ (self.b / (self.s + eta))

    def resid(self, eta: float) -> np.ndarray:
        if self.dual:
            return self.q @ (self.c * (eta / (self.s + eta)))
        return self.y - self.x @ self.mu_hat(eta)

    def tau_hat(self, eta: float) -> float:
        """Reciprocal of tr((X X^T + eta n I_m)^{-1})."""
        if eta == 0:
            # a singular X X^T (always so when m > n) would give tau = 0 and
            # gamma = 0 * inf = NaN, which a grid search's argmin would select
            self.require_invertible()
        inv_sum = float(np.sum(1.0 / (self.s + eta)))
        if not self.dual:
            if eta < 0:
                raise InputError("tau estimator needs eta > 0 when m > n")
            inv_sum += (self.m - self.n) / eta
        return self.n / inv_sum

    def gamma_hat(self, eta: float) -> float:
        """(tau_hat/sqrt(n)) ||(X X^T/n + eta I)^{-1} Y||: ||Q^T Y / (S + eta)||
        in the dual route, down to eta = 0; ||resid|| / eta in the primal one."""
        if not self.dual and eta <= 0:
            raise InputError("underparametrized gamma estimator requires eta > 0")
        t = self.tau_hat(eta)
        if self.dual:
            return t / np.sqrt(self.n) * float(np.linalg.norm(self.c / (self.s + eta)))
        return t / np.sqrt(self.n) * float(np.linalg.norm(self.resid(eta))) / eta


def gcv_select(data: Dataset, grid) -> TuningResult:
    """Pick eta minimizing the estimated effective noise gamma_hat(eta)."""
    etas = check_eta_grid(grid)
    objective = np.array([data.sweep.gamma_hat(float(e)) for e in etas])
    idx = int(np.argmin(objective))
    return TuningResult(
        etas=etas, objective=objective, eta_hat=float(etas[idx]), method="gcv"
    )


def kfold_folds(m: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous blocks; remainder goes to the first folds."""
    if not 2 <= k <= m:
        raise InputError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")
    perm = rng.permutation(m)
    base, extra = divmod(m, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def kfold_objective(data: Dataset, grid, folds: list[np.ndarray]) -> np.ndarray:
    """Mean over folds of the per-row held-out squared error, per grid point.

    Every fold's held-out residuals come from the sample's one factorization
    through the block-deletion identity. With the full-sample fit mu_hat and
    hat matrix H = X (X^T X / n + eta I)^{-1} X^T / n, the fit to the rows
    outside fold B leaves e_B = (I - H_BB)^{-1} (y_B - X_B mu_hat) on B; in
    the dual route that reads e_B = ((A^{-1})_BB)^{-1} (A^{-1} y)_B with
    A = X X^T / n + eta I. eta = 0 on a primal sample is refit fold by fold:
    a training fold with fewer than n rows makes I - H_BB singular there,
    and each training fold's Gram matrix must then be safely invertible.
    """
    etas = check_eta_grid(grid)
    sweep = data.sweep
    refit_zero = etas[0] == 0 and not sweep.dual
    if etas[0] == 0 and sweep.dual:
        sweep.require_invertible()
    # A^{-1} = Q diag(d) Q^T in the dual route, H = P diag(d) P^T / n with
    # P = X V in the primal one, where d = 1 / (s + eta)
    basis = sweep.q if sweep.dual else data.x @ sweep.v
    total = np.zeros_like(etas)
    for fold in folds:
        p = basis[fold]
        for i in range(1 if refit_zero else 0, etas.size):
            d = 1.0 / (sweep.s + etas[i])
            if sweep.dual:
                lhs = (p * d) @ p.T
                rhs = p @ (sweep.c * d)
            else:
                lhs = np.eye(len(fold)) - (p * d) @ p.T / data.n
                rhs = data.y[fold] - p @ (sweep.b * d)
            err = np.linalg.solve(lhs, rhs)
            total[i] += float(err @ err) / len(fold)
    objective = total / len(folds)
    if refit_zero:
        objective[0] = _kfold_refit(data, etas[:1], folds)[0]
    return objective


def _kfold_refit(data: Dataset, etas: np.ndarray, folds: list[np.ndarray]) -> np.ndarray:
    """kfold_objective by one GramSweep per training fold (the reference route).

    At eta = 0 a training fold whose Gram matrix is singular or worse
    conditioned than _GRAM_COND_LIMIT raises IllConditioned.
    """
    total = np.zeros_like(etas)
    mask = np.ones(data.m, dtype=bool)
    for fold in folds:
        mask[:] = True
        mask[fold] = False
        sweep = GramSweep(data.x[mask], data.y[mask])
        if etas[0] == 0:
            sweep.require_factor_invertible()
        x_test, y_test = data.x[fold], data.y[fold]
        for i, eta in enumerate(etas):
            err = y_test - x_test @ sweep.mu_hat(float(eta))
            total[i] += float(err @ err) / len(fold)
    return total / len(folds)


def kfold_select(data: Dataset, grid, k: int, seed) -> TuningResult:
    """k-fold cross-validation; seed may be an int or a Generator."""
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        from .rng import stream

        rng = stream(int(seed), 0, "fold")
    folds = kfold_folds(data.m, k, rng)
    etas = check_eta_grid(grid)
    objective = kfold_objective(data, etas, folds)
    idx = int(np.argmin(objective))
    return TuningResult(
        etas=etas, objective=objective, eta_hat=float(etas[idx]), method=f"cv{k}"
    )


def debias(mu_hat: np.ndarray, tau: float, model: CovarianceModel) -> np.ndarray:
    """(Sigma + tau I) Sigma^{-1} mu_hat; tau may be tau_star or tau_hat."""
    check_positive(tau, "tau")
    return model.apply(lambda lam: (lam + tau) / lam, mu_hat)


def confidence_intervals(
    mu_debiased: np.ndarray,
    gamma_val: float,
    model: CovarianceModel,
    alpha: float,
    mu0: SignalVector | None = None,
) -> CIReport:
    """Coordinatewise intervals mu^dR_j +- gamma (Sigma^{-1})_{jj}^{1/2} z_{alpha/2}/sqrt(n)."""
    check_alpha(alpha)
    if not gamma_val >= 0:
        raise InputError(f"gamma must be nonnegative, got {gamma_val}")
    n = model.n
    if mu_debiased.shape != (n,):
        raise InputError("debiased estimate has wrong dimension")
    half = (
        gamma_val
        * np.sqrt(model.diag_fn(lambda lam: 1.0 / lam))
        * z_two_sided(alpha)
        / np.sqrt(n)
    )
    report = CIReport(
        lower=mu_debiased - half,
        upper=mu_debiased + half,
        alpha=float(alpha),
        gamma_hat=float(gamma_val),
    )
    if mu0 is not None:
        report = CIReport(
            lower=report.lower,
            upper=report.upper,
            alpha=report.alpha,
            gamma_hat=report.gamma_hat,
            coverage=coverage(report, mu0),
        )
    return report


def coverage(report: CIReport, mu0: SignalVector) -> float:
    """Fraction of coordinates whose truth lands inside its interval."""
    v = mu0.coords
    if v.shape != report.lower.shape:
        raise InputError("signal dimension does not match the intervals")
    inside = (report.lower <= v) & (v <= report.upper)
    return float(np.mean(inside))
