"""Seeded Monte Carlo experiments around the ridge(less) theory.

Designs, noise and signals come from splittable counter-based streams, so
every experiment is bitwise reproducible for a fixed master seed no matter
how many worker threads run the replications. Stream identity is
(master_seed, rep, role, ctx): the role separates draw kinds inside one
replication, ctx separates experiment phases or sweep points, and each
runner fixes its own. Replications run as independent tasks and are
reduced in rep order.

Replications that fail numerically (an ill-conditioned Gram matrix at
eta = 0, say) are recorded and excluded; an experiment aborts once more
than 1% of its replications fail.
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .dataio import eta_grid
from .errors import PHI_RANGE, IllConditioned, InputError, NonConvergence, WrongRegime
from .errors import boolean, check_alpha, check_all, check_eta, check_eta_grid, check_mc_reps
from .errors import check_positive, check_radius, check_scale, check_size, check_threads, choice
from .errors import dimension, read_object, real, reals, seed
from .fixedpoint import EffectiveParams, ProblemConfig, solve_effective
from .regress import Dataset, confidence_intervals, debias, gcv_select, kfold_select
# unused here; ridgebench/tracer.py wraps this name at this module
from .regress import kfold_objective  # noqa: F401
from .riskengine import (
    TUNABLE_KINDS,
    RiskKind,
    check_lq_weight,
    optimal_eta,
    risk_curves,
    rmt_risk,
    solve_grid,
)
# unused here; ridgebench/tracer.py wraps this name at this module
from .riskengine import theoretical_risk  # noqa: F401
from .rng import as_rng, stream
from .spectrum import CovarianceModel, SignalVector, _dot, as_signal, check_model
from .spectrum import model_from_json, sigma_quad
from .stats import scaled_t10

_DISTS = ("gaussian", "scaled_t10")
SIGNAL_MODES = ("sphere", "ball_radial")
# fig1's two experiments share a master seed but, by their contexts, no draw
_RISK_CTX, _ARGMIN_CTX = 0, 1


def _model_spec(spec) -> dict:
    if not isinstance(spec, dict):
        raise ValueError(f"expected a JSON object with a 'kind', got {spec!r:.40}")
    if "n" in spec:
        raise ValueError("a sim model takes its dimension from 'n' or 'phi_grid', not its own 'n'")
    return dict(spec)


# JSON key of an experiment config -> (ExperimentConfig field, cast); the
# keys of its "signal" object have their own table.
_JSON_KEYS = {
    "m": ("m", dimension),
    "n": ("n", dimension),
    "phi_grid": ("phi_grid", reals),
    "model": ("model_spec", _model_spec),
    "eta_grid": ("etas", eta_grid),
    "design_dist": ("design_dist", choice(*_DISTS)),
    "noise_dist": ("noise_dist", choice(*_DISTS)),
    "sigma_sq": ("sigma_sq", real),
    "reps": ("reps", dimension),
    "argmin_reps": ("argmin_reps", dimension),
    "k": ("k", dimension),
    "alpha": ("alpha", real),
    "seed": ("master_seed", seed),
    "redraw_signal": ("redraw_signal", boolean),
    "threads": ("threads", dimension),
}
_SIGNAL_KEYS = {"mode": ("signal_mode", choice(*SIGNAL_MODES)), "radius": ("signal_radius", real)}


def _fields(obj) -> dict:
    """ExperimentConfig field -> value of a JSON experiment config, read
    through the key tables; an absent key takes its field's default."""

    def read(keys: dict, values, what: str, nested: bool = False) -> dict:
        table = {key: (cast, _DEFAULTS[name]) for key, (name, cast) in keys.items()}
        out = read_object(values, table, what, nested)
        return {name: out[key] for key, (name, _) in keys.items()}

    signal = {}
    if isinstance(obj, dict):
        obj = dict(obj)
        signal = obj.pop("signal", {})
    return {**read(_JSON_KEYS, obj, "experiment config"),
            **read(_SIGNAL_KEYS, signal, "signal", nested=True)}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Knobs for one simulation study.

    Either n (fixed-shape experiments) or phi_grid (aspect-ratio sweeps at
    fixed m) must be set. model_spec is the covariance description without
    its dimension, which is filled in per sweep point. The eta grid may
    start at 0 only when n > m; sweeps drop the 0 point for shapes where
    the interpolator does not exist.
    """

    m: int
    model_spec: dict
    etas: tuple[float, ...]
    n: int | None = None
    phi_grid: tuple[float, ...] | None = None
    design_dist: str = "scaled_t10"
    noise_dist: str = "scaled_t10"
    sigma_sq: float = 1.0
    signal_mode: str = "sphere"
    signal_radius: float = 1.0
    reps: int = 200
    argmin_reps: int | None = None
    k: int = 5
    alpha: float = 0.05
    master_seed: int = 0
    redraw_signal: bool = False
    threads: int = 1

    def __post_init__(self):
        # a config built directly is cast as from_json casts one
        for name, value in _fields(self.to_json()).items():
            object.__setattr__(self, name, value)
        check_size(self.m, "'m'")
        if (self.n is None) == (self.phi_grid is None):
            raise InputError("exactly one of n and phi_grid must be given")
        check_radius(self.signal_radius, "signal")
        check_scale(self.sigma_sq, "'sigma_sq'")
        check_eta(self.eta_star, "eta* = sigma_sq / radius^2")
        check_size(self.reps, "'reps'")
        if self.argmin_reps is not None:
            check_size(self.argmin_reps, "'argmin_reps'")
        check_size(self.k, "'k'", least=2)
        check_threads(self.threads, "'threads'")
        check_alpha(self.alpha, "'alpha'")
        etas = check_eta_grid(self.etas, "'eta_grid'")
        object.__setattr__(self, "etas", tuple(etas.tolist()))
        if self.n is not None and etas[0] == 0 and self.n <= self.m:
            raise InputError("eta grid may include 0 only when n > m")
        if self.phi_grid is not None:
            phis = check_all(self.phi_grid, "'phi_grid'", *PHI_RANGE)
            if phis.ndim != 1 or not phis.size:
                raise InputError("phi grid must be nonempty")
            if round(self.m / phis.max()) < 1:
                raise InputError(f"phi = {phis.max()} leaves no signal dimension")
            object.__setattr__(self, "phi_grid", tuple(phis.tolist()))

    @property
    def signal_norm_sq(self) -> float:
        """r * r for the signal radius r; r**2 raises OverflowError past the range."""
        return self.signal_radius * self.signal_radius

    @property
    def eta_star(self) -> float:
        """The oracle penalty sigma_sq / r^2 that fig1 reports and fig2 solves at."""
        return optimal_eta(self.sigma_sq, self.signal_norm_sq)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object; an absent key leaves its field's
        default, and a key whose field has none is required."""
        return cls(**_fields(obj))

    def to_json(self) -> dict:
        """The fields under their JSON keys; a field at its default of None is left out."""

        def read(table) -> dict:
            out = {}
            for key, (name, _) in table.items():
                value = getattr(self, name)
                if value is not None or _DEFAULTS[name] is not None:
                    # tuples as lists, the model spec as a copy
                    out[key] = list(value) if isinstance(value, tuple) else copy.copy(value)
            return out

        return {**read(_JSON_KEYS), "signal": read(_SIGNAL_KEYS)}


# field -> its default, MISSING for a required field
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


@dataclass(frozen=True, eq=False)
class RiskSummary:
    """Mean empirical risk curves over the eta grid with their overlays.

    Dicts are keyed by risk kind value ("pred", "est", "ins", "res").
    """

    master_seed: int
    reps: int
    failed: tuple[int, ...]
    etas: np.ndarray
    eta_star: float
    emp_mean: dict
    emp_sd: dict
    theoretical: dict
    rmt: dict


@dataclass(frozen=True, eq=False)
class TuningSummary:
    """GCV / k-fold / oracle tuning outcomes, one entry per sweep point phi.

    risk_mean and risk_sd are keyed by (method, kind value) and hold one
    value per phi; coverage_mean and ci_len_mean are keyed by method.
    eta_selected, rep_risk and rep_grid_min hold one per-rep array per phi.
    failed holds one (phi index, rep index) pair per skipped replication.
    """

    master_seed: int
    reps: int
    failed: tuple[tuple[int, int], ...]
    eta_star: float
    phis: np.ndarray
    risk_mean: dict
    risk_sd: dict
    coverage_mean: dict
    ci_len_mean: dict
    oracle_len: np.ndarray
    eta_selected: dict
    rep_risk: dict
    rep_grid_min: dict


@dataclass(frozen=True, eq=False)
class ArgminResult:
    """Per-signal grid minimizers eta_hat of the empirical risks, keyed by
    kind value, one per kept rep."""

    etas: np.ndarray
    eta_star: float
    eta_hat: dict
    rep_indices: tuple[int, ...]
    master_seed: int
    failed: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class DistCheckResult:
    """Discrepancies between data-level statistics and sequence-model means.

    Dicts are keyed by statistic name. noise_floor is the table that fresh
    sequence-model draws in place of the data fits give: its scale is the
    Monte Carlo noise of the check itself.
    """

    etas: np.ndarray
    table: dict
    per_rep_sup: dict
    seq_se: dict
    noise_floor: dict
    failed: tuple[int, ...]


def build_model(spec: dict, n: int) -> CovarianceModel:
    """Instantiate a covariance model spec at dimension n."""
    obj = dict(spec)
    obj["n"] = int(n)
    return model_from_json(obj)


def sample_signal(mode: str, n: int, seed, radius: float = 1.0) -> SignalVector:
    """sphere: radius * g/||g||; ball_radial: radius * U * g/||g||, U ~ Unif[0,1].

    ball_radial has a uniformly distributed norm, which is not the same as
    a volume-uniform draw from the ball.
    """
    if mode not in SIGNAL_MODES:
        raise InputError(f"signal mode must be one of {SIGNAL_MODES}")
    check_size(n, "dimension")
    check_radius(radius, "signal", zero=True)
    rng = as_rng(seed, "signal")
    g = rng.standard_normal(n)
    # _dot, not np.linalg.norm: a BLAS dot's last bit moves with its thread count
    scale = radius / math.sqrt(_dot(g, g))
    if mode == "ball_radial":
        scale *= float(rng.random())
    return SignalVector(g * scale)


def _unit_sampler(dist: str, role: str):
    """draw(rng, shape): i.i.d. mean-zero, unit-variance entries of dist."""
    if dist not in _DISTS:
        raise InputError(f"{role} distribution must be one of {_DISTS}")
    if dist == "gaussian":
        return lambda rng, shape: rng.standard_normal(shape)
    return lambda rng, shape: scaled_t10(rng, shape)


def sample_design(dist: str, m: int, n: int, model: CovarianceModel, seed) -> np.ndarray:
    """X = Z Sigma^{1/2} with Z entries i.i.d. mean zero, unit variance.

    X is C-ordered at every shape, since the Gram products round by its
    layout. apply keeps the layout of the F-ordered Z^T for every model but
    a rotated Explicit one, so only that one copies.
    """
    draw = _unit_sampler(dist, "design")
    check_size(m, "m")
    if check_size(n, "n") != check_model(model, "model").n:
        raise InputError(f"model dimension {model.n} != n = {n}")
    z = draw(as_rng(seed, "design"), (m, n))
    return np.ascontiguousarray(model.apply(np.sqrt, z.T).T)


def sample_noise(dist: str, m: int, sigma_sq: float, seed) -> np.ndarray:
    """sigma * xi0 with unit-variance xi0; exactly zero (no draws) at sigma_sq = 0."""
    draw = _unit_sampler(dist, "noise")
    check_size(m, "m")
    if check_scale(sigma_sq, "sigma_sq") == 0:
        return np.zeros(m)
    return np.sqrt(sigma_sq) * draw(as_rng(seed, "noise"), m)


def _seq_step(
    model: CovarianceModel, root_mu0: np.ndarray, gamma: float, tau: float, g: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """y = Sigma^{1/2} mu0 + gamma g / sqrt(n) and its ridge estimate
    (Sigma + tau I)^{-1} Sigma^{1/2} y, given root_mu0 = Sigma^{1/2} mu0 and
    a standard normal draw g, which is not read at gamma = 0."""
    y = root_mu0 + gamma * g / np.sqrt(model.n) if gamma != 0 else root_mu0
    return y, model.apply(lambda lam: np.sqrt(lam) / (lam + tau), y)


def seq_model_sample(
    model: CovarianceModel, mu0: SignalVector, gamma: float, tau: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Sequence-model observation and its ridge estimate (_seq_step), g
    drawn from seed's "seq" stream. No draw happens at gamma = 0."""
    check_model(model, "model")
    check_positive(gamma, "gamma", zero=True)
    check_positive(tau, "tau")
    root_mu0 = model.apply(np.sqrt, as_signal(mu0).coords)
    g = as_rng(seed, "seq").standard_normal(model.n) if gamma != 0 else None
    return _seq_step(model, root_mu0, gamma, tau, g)


def _apply_weight(a, model: CovarianceModel, v: np.ndarray) -> np.ndarray:
    if a is None:
        return v
    if a.ndim == 1:
        return model.apply(lambda _: a, v)
    return a @ v


def seq_model_lq_mc(
    q: float, a, params: EffectiveParams, reps: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ||A(mu_hat^seq - mu0)||_q, the
    twin of lq_risk(q, lq_gamma_diag(a, params)).

    The sequence model is the solved problem's: its model and mu0, at
    gamma~ = sqrt(params.gamma_tilde_sq) and params.tau_star. The closed form
    averages the bias over signal directions, so mu0 should be a typical
    sphere draw (or any vector with spread-out eigen-coordinates) for the two
    to agree beyond q = 2. It is also the n -> infinity limit at fixed q, so
    the two agree only while q is small against log n (see lq_risk). The
    weight a is checked by check_lq_weight. Each norm is summed scaled by
    g = max_j |d_j|, as in lq_risk, so a large q cannot underflow.
    """
    check_mc_reps(reps)
    check_size(seed, "seed", least=0)
    check_positive(q, "q")
    model, mu0, tau = params.model, params.mu0, params.tau_star
    a = check_lq_weight(a, model)
    gamma = np.sqrt(params.gamma_tilde_sq)
    root_mu0 = model.apply(np.sqrt, mu0.coords)
    vals = np.empty(reps)
    for rep in range(reps):
        g = stream(seed, rep, "seq").standard_normal(model.n) if gamma != 0 else None
        _, mu_hat = _seq_step(model, root_mu0, gamma, tau, g)
        diff = np.abs(_apply_weight(a, model, mu_hat - mu0.coords))
        g = float(diff.max(initial=0.0)) or 1.0  # d = 0 has norm 0 at any g
        try:
            vals[rep] = g * float(np.sum((diff / g) ** q)) ** (1.0 / q)
        except OverflowError:  # a tiny q takes the norm, and the mean, past the float range
            return math.inf, math.inf
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(reps))
    return mean, stderr


def _map_reps(reps: int, threads: int, worker):
    """Run worker(rep) for rep in range(reps); ordered results, failures listed.

    Only numerical failures (ill-conditioning, wrong regime, linear-algebra
    breakdown) count as skippable; anything else propagates. Aborts when
    more than 1% of replications fail. At most reps workers run, since
    pool.map submits every rep at once and each submit may start a thread.
    """

    def guarded(rep: int):
        try:
            return worker(rep), None
        except (IllConditioned, WrongRegime, np.linalg.LinAlgError) as exc:
            return None, exc

    workers = min(threads, reps)
    if workers == 1:
        raw = [guarded(rep) for rep in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(guarded, range(reps)))
    results = []
    failed = []
    for rep, (value, exc) in enumerate(raw):
        if exc is None:
            results.append((rep, value))
        else:
            failed.append(rep)
    if len(failed) > 0.01 * reps:
        raise NonConvergence(
            f"{len(failed)} of {reps} replications failed numerically"
        )
    return results, tuple(failed)


def _draw_signal(config: ExperimentConfig, n: int, rep: int, ctx: int) -> SignalVector:
    """The config's signal in dimension n from its (rep, "signal", ctx) stream."""
    rng = stream(config.master_seed, rep, "signal", ctx)
    return sample_signal(config.signal_mode, n, rng, config.signal_radius)


def _draw_rep(
    config: ExperimentConfig,
    model: CovarianceModel,
    rep: int,
    ctx: int,
    mu0: SignalVector | None = None,
) -> Dataset:
    """One replication's sample Y = X mu0 + xi from its (rep, role, ctx) streams.

    The signal is drawn unless one is passed in. A rep whose Gram matrix is
    not safely invertible fails, and is skipped, at its first fit at
    eta = 0 (GramSweep.shift).
    """
    seed = config.master_seed
    if mu0 is None:
        mu0 = _draw_signal(config, model.n, rep, ctx)
    x = sample_design(
        config.design_dist, config.m, model.n, model, stream(seed, rep, "design", ctx)
    )
    xi = sample_noise(
        config.noise_dist, config.m, config.sigma_sq, stream(seed, rep, "noise", ctx)
    )
    return Dataset(x, x @ mu0.coords + xi, model, mu0)


def _fixed_shape(config: ExperimentConfig, what: str) -> tuple[CovarianceModel, np.ndarray]:
    """The model at the config's fixed n and its eta grid; what names the caller."""
    if config.n is None:
        raise InputError(f"{what} needs a fixed n")
    return build_model(config.model_spec, config.n), np.asarray(config.etas)


def _shared_problem(
    config: ExperimentConfig, model: CovarianceModel, ctx: int
) -> ProblemConfig:
    """The eta = 0 theory problem at phi = m/n around the shared rep-0 signal."""
    mu0 = _draw_signal(config, model.n, 0, ctx)
    return ProblemConfig(
        phi=config.m / model.n, eta=0.0, sigma_sq=config.sigma_sq, model=model, mu0=mu0
    )


def _stack(records) -> dict:
    """{key: array of the records' values, in record order} for equal-keyed dicts."""
    records = list(records)
    return {key: np.array([rec[key] for rec in records]) for key in records[0]}


def _empirical_curves(data: Dataset, etas: np.ndarray, kinds) -> dict:
    """Empirical risks along the sample's ridge path, one array per kind."""
    out = {kind: np.empty(etas.size) for kind in kinds}
    sweep, n = data.sweep, data.n
    for i, eta in enumerate(etas):
        diff = sweep.mu_hat(float(eta)) - data.mu0.coords
        for kind in kinds:
            if kind == RiskKind.EST:
                out[kind][i] = float(diff @ diff)
            elif kind == RiskKind.PRED:
                out[kind][i] = sigma_quad(data.model, diff)
            elif kind == RiskKind.INS:
                xd = data.x @ diff
                out[kind][i] = float(xd @ xd) / n
            else:
                r = sweep.resid(float(eta)) / np.sqrt(n)
                out[kind][i] = float(r @ r)
    return out


def run_risk_experiment(config: ExperimentConfig) -> RiskSummary:
    """Mean empirical risk curves with theoretical and RMT overlays.

    One signal is drawn up front and shared by every replication unless
    redraw_signal is set; the overlays always use that first signal.
    """
    model, etas = _fixed_shape(config, "risk experiment")
    theory = _shared_problem(config, model, _RISK_CTX)

    def worker(rep: int) -> dict:
        mu0 = None if config.redraw_signal and rep > 0 else theory.mu0
        data = _draw_rep(config, model, rep, _RISK_CTX, mu0)
        return _empirical_curves(data, etas, RiskKind)

    results, failed = _map_reps(config.reps, config.threads, worker)
    curves = _stack(res for _, res in results)
    overlay = risk_curves(theory, RiskKind, etas)
    ddof = 1 if len(results) > 1 else 0
    return RiskSummary(
        master_seed=config.master_seed,
        reps=config.reps,
        failed=failed,
        etas=etas,
        eta_star=config.eta_star,
        emp_mean={kind.value: curves[kind].mean(axis=0) for kind in RiskKind},
        emp_sd={kind.value: curves[kind].std(axis=0, ddof=ddof) for kind in RiskKind},
        theoretical={kind.value: overlay[kind].theoretical for kind in RiskKind},
        rmt={kind.value: overlay[kind].rmt for kind in RiskKind},
    )


def run_argmin_experiment(config: ExperimentConfig) -> ArgminResult:
    """Redraw the signal per replication; report each empirical risk's grid argmin."""
    model, etas = _fixed_shape(config, "argmin experiment")
    eta_star = config.eta_star
    reps = config.argmin_reps if config.argmin_reps is not None else config.reps

    def worker(rep: int) -> dict:
        data = _draw_rep(config, model, rep, _ARGMIN_CTX)
        return _empirical_curves(data, etas, TUNABLE_KINDS)

    results, failed = _map_reps(reps, config.threads, worker)
    curves = _stack(res for _, res in results)
    return ArgminResult(
        etas=etas,
        eta_star=eta_star,
        eta_hat={kind.value: etas[np.argmin(curves[kind], axis=1)] for kind in TUNABLE_KINDS},
        rep_indices=tuple(rep for rep, _ in results),
        master_seed=config.master_seed,
        failed=failed,
    )


def _sweep_grid(config: ExperimentConfig, n: int) -> np.ndarray:
    etas = np.asarray(config.etas)
    if etas[0] == 0 and n <= config.m:
        etas = etas[1:]
    if etas.size == 0:
        raise InputError("eta grid is empty after dropping the interpolation point")
    return etas


def run_tuning_experiment(config: ExperimentConfig) -> TuningSummary:
    """GCV / k-fold CV / oracle tuning across an aspect-ratio sweep.

    Per sweep point phi, n = round(m/phi), theory uses the realized ratio
    m/n and the point's index is the stream context. The signal is redrawn
    each replication. Oracle rows carry the RMT risk at eta_star; oracle
    coverage and lengths come from the data pipeline run at eta_star.
    """
    if config.phi_grid is None:
        raise InputError("tuning experiment needs a phi grid")
    if config.sigma_sq <= 0:
        raise InputError("tuning experiment needs sigma_sq > 0")
    eta_star = config.eta_star
    cv_tag = f"cv{config.k}"
    selectors = ("gcv", cv_tag)
    methods = selectors + ("oracle",)

    phis, oracle_len, oracle_risk = [], [], []
    records = []  # per phi: each record key's values over the successful reps
    failed_all: list[tuple[int, int]] = []
    for pi, phi_req in enumerate(config.phi_grid):
        n = round(config.m / phi_req)
        phi = config.m / n
        model = build_model(config.model_spec, n)
        etas = _sweep_grid(config, n)

        # theory reference: a signal with the sphere-averaged eigen-masses
        # r^2/n. r e_1 has them on isotropic and spiked models, and on an
        # explicit one r/sqrt(n) V 1 does, V its basis (or the identity)
        coords = np.concatenate(([config.signal_radius], np.zeros(n - 1)))
        if model.kind == "explicit":
            coords = np.full(n, config.signal_radius / math.sqrt(n))
            coords = coords if model.basis is None else model.basis @ coords
        params_star = solve_effective(ProblemConfig(
            phi=phi, eta=eta_star, sigma_sq=config.sigma_sq, model=model,
            mu0=SignalVector(coords),
        ))
        phis.append(phi)
        gamma_star = np.sqrt(params_star.gamma_star_sq)
        oracle_len.append(
            confidence_intervals(np.zeros(n), gamma_star, model, config.alpha).lengths[0]
        )
        oracle_risk.append({
            kind.value: rmt_risk(kind, params_star) for kind in TUNABLE_KINDS
        })

        def worker(rep: int, model=model, etas=etas, ctx=pi) -> dict:
            data = _draw_rep(config, model, rep, ctx)
            sweep = data.sweep
            curves = _empirical_curves(data, etas, TUNABLE_KINDS)
            fold_rng = stream(config.master_seed, rep, "fold", ctx)
            rec = {("eta", "oracle"): eta_star}
            for kind in TUNABLE_KINDS:
                rec["grid_min", kind.value] = float(curves[kind].min())
            for pick in (gcv_select(data, etas), kfold_select(data, etas, config.k, fold_rng)):
                rec["eta", pick.method] = pick.eta_hat
                idx = np.searchsorted(etas, pick.eta_hat)
                for kind in TUNABLE_KINDS:
                    rec["risk", pick.method, kind.value] = curves[kind][idx]
            for meth in methods:
                eta_m = rec["eta", meth]
                report = confidence_intervals(
                    debias(sweep.mu_hat(eta_m), sweep.tau_hat(eta_m), model),
                    sweep.gamma_hat(eta_m),
                    model,
                    config.alpha,
                    data.mu0,
                )
                rec["coverage", meth] = report.coverage
                rec["ci_len", meth] = float(report.lengths[0])
            return rec

        results, failed = _map_reps(config.reps, config.threads, worker)
        failed_all.extend((pi, rep) for rep in failed)
        records.append(_stack(rec for _, rec in results))

    def per_phi(*key) -> list[np.ndarray]:
        return [stacked[key] for stacked in records]

    rep_risk = {
        (meth, kind.value): per_phi("risk", meth, kind.value)
        for kind in TUNABLE_KINDS
        for meth in selectors
    }
    risk_mean = {key: np.array([v.mean() for v in vals]) for key, vals in rep_risk.items()}
    risk_sd = {
        key: np.array([v.std(ddof=1 if v.size > 1 else 0) for v in vals])
        for key, vals in rep_risk.items()
    }
    for kind, values in _stack(oracle_risk).items():
        risk_mean["oracle", kind] = values
        risk_sd["oracle", kind] = np.zeros(len(phis))
    return TuningSummary(
        master_seed=config.master_seed,
        reps=config.reps,
        failed=tuple(failed_all),
        eta_star=eta_star,
        phis=np.array(phis),
        risk_mean=risk_mean,
        risk_sd=risk_sd,
        coverage_mean={
            meth: np.array([v.mean() for v in per_phi("coverage", meth)])
            for meth in methods
        },
        ci_len_mean={
            meth: np.array([v.mean() for v in per_phi("ci_len", meth)])
            for meth in methods
        },
        oracle_len=np.array(oracle_len),
        eta_selected={meth: per_phi("eta", meth) for meth in selectors},
        rep_risk=rep_risk,
        rep_grid_min={kind.value: per_phi("grid_min", kind.value) for kind in TUNABLE_KINDS},
    )


def _dist_stats(fits: np.ndarray, mu0: np.ndarray) -> dict:
    """The four 1-Lipschitz statistics of each row of a (K, n) block of fits,
    as length-K arrays. l2_dist is an einsum row sum, never BLAS, so its last
    bit does not move with the BLAS thread count."""
    diff = fits - mu0
    root_n = np.sqrt(fits.shape[1])
    return {
        "l1_scaled": np.abs(diff).sum(axis=1) / root_n,
        "l2_dist": np.sqrt(np.einsum("kj,kj->k", diff, diff)),
        "proj_first": fits[:, 0],
        "proj_mean": fits.sum(axis=1) / root_n,
    }


def distributional_check(config: ExperimentConfig, seq_reps: int = 400) -> DistCheckResult:
    """Compare data-level statistics against sequence-model Monte Carlo means.

    For each eta, seq_reps draws of the sequence model at (gamma_star,
    tau_star) estimate E g(mu_hat_seq) for each of the four statistics g of
    _dist_stats; each data replication contributes g(mu_hat_eta). Bank
    draw s reads one g from its (s, "seq") stream at every eta, so the
    etas share their random numbers. config.reps further draws, bank
    indices seq_reps onward, stand in for the data fits to give the noise
    floor.
    """
    model, etas = _fixed_shape(config, "distributional check")
    check_size(seq_reps, "seq_reps", least=2)
    params = solve_grid(_shared_problem(config, model, 0), etas)
    mu0, gammas = params.mu0, np.sqrt(params.gamma_star_sq)
    root_mu0 = model.apply(np.sqrt, mu0.coords)

    def seq_stats(s: int) -> dict:
        g = stream(config.master_seed, s, "seq").standard_normal(model.n)
        fits = [_seq_step(model, root_mu0, gamma, tau, g)[1]
                for gamma, tau in zip(gammas, params.tau_star)]
        return _dist_stats(np.array(fits), mu0.coords)

    def gap(vals: dict, mean: dict) -> dict:
        return {name: np.abs(vals[name].mean(axis=0) - mean[name]) for name in mean}

    bank = _stack(seq_stats(s) for s in range(seq_reps))
    seq_mean = {name: vals.mean(axis=0) for name, vals in bank.items()}
    seq_se = {name: vals.std(axis=0, ddof=1) / np.sqrt(seq_reps) for name, vals in bank.items()}
    floor = _stack(seq_stats(seq_reps + rep) for rep in range(config.reps))

    def worker(rep: int) -> dict:
        sweep = _draw_rep(config, model, rep, 0, mu0).sweep
        return _dist_stats(sweep.mu_hat(etas), mu0.coords)

    results, failed = _map_reps(config.reps, config.threads, worker)
    data_vals = _stack(res for _, res in results)
    return DistCheckResult(
        etas=etas,
        table=gap(data_vals, seq_mean),
        per_rep_sup={
            name: np.max(np.abs(vals - seq_mean[name][None, :]), axis=1)
            for name, vals in data_vals.items()
        },
        seq_se=seq_se,
        noise_floor=gap(floor, seq_mean),
        failed=failed,
    )
