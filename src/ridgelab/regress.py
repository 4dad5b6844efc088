"""Data-level ridge(less) regression.

Fits, the (tau, gamma, sigma^2) estimators, GCV and
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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy  # ridge_fit, the one user of scipy.linalg, loads it on first call

from .errors import IllConditioned, InputError, WrongRegime, check_alpha, check_eta
from .errors import check_eta_grid, check_positive, check_scale, check_size
from .rng import as_rng
from .spectrum import CovarianceModel, SignalVector, as_signal, check_model
from .stats import z_two_sided

_GRAM_COND_LIMIT = 1e12
# Floats (512 KB) in kfold_objective's stacked P diag(d) for one block of
# eta, at least one eta per block, so memory does not grow with the grid: a
# 40-row fold with r = 200 solves 8 eta at once, a 200-row fold with r = 1000 one.
_KFOLD_BLOCK_FLOATS = 2**16


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
        if x.shape[1] != check_model(self.model, "'model'").n:
            raise InputError(
                f"design has {x.shape[1]} columns, model dimension is {self.model.n}"
            )
        _require_finite("design 'x'", x)
        _require_finite("response 'y'", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.mu0 is not None:
            object.__setattr__(self, "mu0", as_signal(self.mu0))
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
    method: str

    @property
    def eta_hat(self) -> float:
        return float(self.etas[np.argmin(self.objective)])


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


def _checked_ridge_fit(data: Dataset, eta: float, mu: np.ndarray) -> RidgeFit:
    """RidgeFit of mu once it meets the normal equations within 1e-8 relative."""
    x, n = data.x, data.n
    resid = data.y - x @ mu
    kkt = x.T @ resid / n - eta * mu
    if not float(np.linalg.norm(kkt)) <= 1e-8 * (1.0 + float(np.linalg.norm(mu))):
        raise IllConditioned(
            "ridge solve inaccurate: the normal equations are off by more than 1e-8 relative"
        )
    return RidgeFit(eta=float(eta), mu_hat=mu, r_hat=resid / np.sqrt(n))


def ridgeless_fit(data: Dataset, eta: float = 0.0) -> RidgeFit:
    """The fit read off the dataset's one factorization (data.sweep).

    At eta = 0 the minimum-norm interpolator X^T (X X^T)^{-1} Y, which
    needs m < n; at eta > 0 the ridge fit, held to ridge_fit's check of
    the normal equations.
    """
    mu = data.sweep.mu_hat(_one_eta(eta, "ridgeless_fit"))
    if eta > 0:
        return _checked_ridge_fit(data, eta, mu)
    x, y, n = data.x, data.y, data.n
    resid = y - x @ mu
    if float(np.linalg.norm(resid)) > 1e-8 * float(np.linalg.norm(y)):
        raise IllConditioned("interpolation residual beyond tolerance")
    return RidgeFit(eta=0.0, mu_hat=mu, r_hat=resid / np.sqrt(n))


def _one_eta(eta, caller: str):
    """eta, unless it is an array: caller reads one eta, not a grid."""
    if isinstance(eta, np.ndarray):
        raise InputError(f"{caller} takes one eta, got an eta array of shape {eta.shape}")
    return eta


def df_hat(data: Dataset, eta: float | np.ndarray) -> float | np.ndarray:
    """tr((Sigma_hat + (eta/phi) I)^{-1} Sigma_hat) with Sigma_hat = X^T X / m.

    The sweep's spectrum is that of X X^T / n (or X^T X / n), i.e. Sigma_hat's
    nonzero part times m/n, and eta/phi = eta n/m, so the scale cancels.
    """
    return np.sum(data.sweep.s / data.sweep.shift(eta), axis=-1)


def tau_hat(data: Dataset, eta: float | np.ndarray) -> float | np.ndarray:
    """Reciprocal of tr((X X^T + eta n I_m)^{-1}), at an eta or along a grid."""
    return data.sweep.tau_hat(eta)


def gamma_hat(data: Dataset, eta: float | np.ndarray) -> float | np.ndarray:
    """Effective-noise estimator, read off data.sweep (GramSweep.gamma_hat)."""
    return data.sweep.gamma_hat(eta)


def sigma_hat_sq(data: Dataset, eta: float) -> tuple[float, float]:
    """(raw, clamped) noise-level estimate, read off data.sweep.

    raw = gamma^2 (1 - phi + 2 eta / tau) - tau^2 ||Sigma^{-1/2} mu_hat||^2
    with mu_hat, tau and gamma the sweep's fit, tau_hat and gamma_hat at eta;
    finite-sample fluctuations can push raw below zero, hence the clamp.
    """
    sweep, eta = data.sweep, _one_eta(eta, "sigma_hat_sq")
    mu_hat, tau_val, gamma_val = sweep.mu_hat(eta), sweep.tau_hat(eta), sweep.gamma_hat(eta)
    whitened = float(mu_hat @ data.model.apply(lambda lam: 1.0 / lam, mu_hat))
    raw = gamma_val * gamma_val * (1.0 - data.phi + 2.0 * eta / tau_val) - (
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
            self.q, self.qt = basis, basis.T  # Q^T, the right factor of each fit and residual
            self.c = basis.T @ y
        else:
            self.v = basis
            self.b = basis.T @ (x.T @ y) / self.n

    def shift(self, eta: float | np.ndarray) -> np.ndarray:
        """s + eta, the spectrum every fit, residual and estimator divides by.

        A grid (ascending 1-D ndarray) of K etas gives a (K, r) block, one row per eta,
        that the methods below multiply by a basis from the right as a float's vector. It
        refuses an eta outside 0 or ETA_RANGE (InputError); at eta = 0, in a grid only first,
        WrongRegime unless m < n and IllConditioned unless X X^T is safely invertible.
        """
        grid = isinstance(eta, np.ndarray)
        eta = check_eta_grid(eta, "eta")[:, None] if grid else eta
        if (eta[0, 0] if grid else check_eta(eta)) == 0:
            if self.m >= self.n:
                raise WrongRegime(f"eta = 0 requires m < n, got m={self.m}, n={self.n}")
            cond = self.s[-1] / self.s[0] if self.s[0] > 0 else np.inf
            if cond > _GRAM_COND_LIMIT:
                raise IllConditioned(
                    f"X X^T condition {cond:.3e} exceeds {_GRAM_COND_LIMIT:.0e}"
                )
        return self.s + eta

    def mu_hat(self, eta: float | np.ndarray) -> np.ndarray:
        if self.dual:
            return self.c / self.shift(eta) @ self.qt @ self.x / self.n
        return self.b / self.shift(eta) @ self.v.T

    def resid(self, eta: float | np.ndarray) -> np.ndarray:
        if not self.dual:
            return self.y - self.mu_hat(eta) @ self.x.T
        d = self.shift(eta)
        return self.c * ((eta[:, None] if isinstance(eta, np.ndarray) else eta) / d) @ self.qt

    def tau_hat(self, eta: float | np.ndarray) -> float | np.ndarray:
        """Reciprocal of tr((X X^T + eta n I_m)^{-1})."""
        inv_sum = np.sum(1.0 / self.shift(eta), axis=-1)
        if not self.dual:
            inv_sum += (self.m - self.n) / eta
        return self.n / inv_sum

    def gamma_hat(self, eta: float | np.ndarray) -> float | np.ndarray:
        """(tau_hat/sqrt(n)) ||(X X^T/n + eta I)^{-1} Y||: ||Q^T Y / (S + eta)||
        in the dual route, down to eta = 0; ||resid|| / eta in the primal one."""
        v = self.c / self.shift(eta) if self.dual else self.resid(eta)
        # each row's own dot product: np.linalg.norm's bits, which einsum's are not
        norm = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
        t = self.tau_hat(eta) / np.sqrt(self.n) * norm
        return t if self.dual else t / eta


def gcv_select(data: Dataset, grid) -> TuningResult:
    """Pick eta minimizing the estimated effective noise gamma_hat(eta)."""
    etas = check_eta_grid(grid)
    return TuningResult(etas=etas, objective=data.sweep.gamma_hat(etas), method="gcv")


def kfold_folds(m: int, k: int, rng) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous blocks; remainder goes to the first folds.

    rng is a Generator or a seed, cast by rng.as_rng to its "fold" stream.
    """
    check_size(m, "m")
    if not 2 <= check_size(k, "k", least=2) <= m:
        raise InputError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")
    perm = as_rng(rng, "fold").permutation(m)
    base, extra = divmod(m, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


def _check_folds(folds, m: int) -> list[np.ndarray]:
    """The folds as arrays once they are at least two nonempty 1-D integer
    arrays that together partition range(m), as kfold_folds returns them."""
    if len(folds) < 2:
        raise InputError(f"k-fold needs at least 2 folds, got {len(folds)}")
    folds = [np.asarray(fold) for fold in folds]
    for i, fold in enumerate(folds):
        if fold.ndim != 1 or fold.size == 0 or fold.dtype.kind not in "iu":
            raise InputError(f"fold {i} must be a nonempty 1-D integer array")
    rows = np.sort(np.concatenate(folds))
    if not np.array_equal(rows, np.arange(m)):
        raise InputError(f"the folds must partition range({m}), the sample's rows")
    return folds


def kfold_objective(data: Dataset, grid, folds: list[np.ndarray]) -> np.ndarray:
    """Mean over folds of the per-row held-out squared error, per grid point.

    Every fold's held-out residuals come from the sample's one factorization
    through the block-deletion identity. With the full-sample fit mu_hat and
    hat matrix H = X (X^T X / n + eta I)^{-1} X^T / n, the fit to the rows
    outside fold B leaves e_B = (I - H_BB)^{-1} (y_B - X_B mu_hat) on B; in
    the dual route that reads e_B = ((A^{-1})_BB)^{-1} (A^{-1} y)_B with
    A = X X^T / n + eta I. Each fold solves its systems for a block of eta
    at once, the block's stacked P diag(d) holding at most
    _KFOLD_BLOCK_FLOATS floats.
    """
    etas = check_eta_grid(grid)
    folds = _check_folds(folds, data.m)
    sweep = data.sweep
    # A^{-1} = Q diag(d) Q^T in the dual route, H = P diag(d) P^T / n with
    # P = X V in the primal one, where d = 1 / (s + eta), one row per eta
    basis = sweep.q if sweep.dual else data.x @ sweep.v
    r = sweep.s.size
    d = 1.0 / sweep.shift(etas)
    fitted = d * (sweep.c if sweep.dual else sweep.b)
    total = np.zeros_like(etas)
    for fold in folds:
        p, size = basis[fold], len(fold)
        step = max(1, _KFOLD_BLOCK_FLOATS // (size * r))
        for lo in range(0, len(d), step):
            blk = slice(lo, lo + step)
            lhs = ((p * d[blk, None, :]).reshape(-1, r) @ p.T).reshape(-1, size, size)
            rhs = fitted[blk] @ p.T
            if not sweep.dual:  # I - H_BB, in place
                lhs /= -data.n
                lhs.reshape(len(lhs), -1)[:, :: size + 1] += 1.0
                rhs = data.y[fold] - rhs
            err = np.linalg.solve(lhs, rhs[..., None])[..., 0]
            total[blk] += np.einsum("ij,ij->i", err, err) / size
    return total / len(folds)


def kfold_select(data: Dataset, grid, k: int, seed) -> TuningResult:
    """k-fold cross-validation; seed may be an int or a Generator."""
    folds = kfold_folds(data.m, k, seed)
    etas = check_eta_grid(grid)
    return TuningResult(etas=etas, objective=kfold_objective(data, etas, folds), method=f"cv{k}")


def debias(mu_hat: np.ndarray, tau: float, model: CovarianceModel) -> np.ndarray:
    """(Sigma + tau I) Sigma^{-1} mu_hat; tau may be tau_star or tau_hat."""
    check_model(model, "model")
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
    check_model(model, "model")
    check_alpha(alpha)
    check_positive(gamma_val, "gamma", zero=True)
    n = model.n
    if not isinstance(mu_debiased, np.ndarray) or mu_debiased.shape != (n,):
        raise InputError(f"debiased estimate must be an array of shape ({n},)")
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
        report = replace(report, coverage=coverage(report, mu0))
    return report


def coverage(report: CIReport, mu0: SignalVector) -> float:
    """Fraction of coordinates whose truth lands inside its interval."""
    if not isinstance(report, CIReport):
        raise InputError(f"report must be a CIReport, got {type(report).__name__}")
    v = as_signal(mu0).coords
    if v.shape != report.lower.shape:
        raise InputError("signal dimension does not match the intervals")
    inside = (report.lower <= v) & (v <= report.upper)
    return float(np.mean(inside))
