"""Command-line front end.

Exit codes: 0 on success, 1 on usage or input errors, 2 on numerical
failures (no fixed point in the requested regime, non-convergence,
ill-conditioning). Each command handler only computes: it returns a
_Result holding its CSV tables, its output directory, the config that
run_meta.json records and its stdout key=value report, and `run` hands
that to `_emit`, the one place that checks, writes and prints. The output
rule: a non-finite CSV cell or report value is a numerical error (exit 2)
naming the file, the column and the row's leading key, and nothing is
written; output directories are created; a bad output location (an
--out that is a directory, an --out-dir that is a file, a path that
cannot be written) is a usage error (exit 1). Commands with file outputs
also drop a run_meta.json next to them recording the resolved
configuration and the argv that reproduces the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import dataio
from ._version import __version__
from .errors import InputError, NumericalError, RidgelabError, UsageError, as_cast, check_alpha
from .errors import check_eta, check_eta_grid, check_mc_reps, check_positive, check_size
from .errors import choice, coerce, dimension, read_object, real, seed
from .fixedpoint import ProblemConfig, solve_effective
from .regress import (
    confidence_intervals,
    debias,
    df_hat,
    gamma_hat,
    gcv_select,
    kfold_select,
    ridgeless_fit,
    sigma_hat_sq,
    sweep_ridge_fit,
    tau_hat,
)
# unused here; ridgebench/tracer.py wraps this name at this module
from .regress import ridge_fit  # noqa: F401
from .riskengine import lq_gamma_diag, lq_risk, risk_curves, solve_grid
# unused here; ridgebench/tracer.py wraps these names at this module
from .riskengine import risk_derivative, rmt_risk, theoretical_risk  # noqa: F401
from .simlab import (
    SIGNAL_MODES,
    ExperimentConfig,
    run_argmin_experiment,
    run_risk_experiment,
    run_tuning_experiment,
    sample_signal,
    seq_model_lq_mc,
)
from .spectrum import SignalVector, model_from_json, real_array


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(name: str):
    """The argparse type of a flag: its text read through _CASTS[name], refused at parse time."""
    cast = _CASTS[name]

    def parse(text: str):
        try:
            return cast(text)
        except (ValueError, RidgelabError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _listed(cast, what: str, once: bool = False):
    """The cast of a comma-separated list of at least one item, each read
    through cast, and with once set none twice."""

    def parse(text: str) -> list:
        items = [cast(item.strip()) for item in text.split(",") if item.strip()]
        if not items or once and len(set(items)) < len(items):
            twice = " and none twice" if once else ""
            raise ValueError(f"expected at least one {what}{twice}, got {text!r}")
        return items

    return parse


_KIND_ORDER = ("pred", "est", "ins", "res")


# flag value -> the cast of its text: the library's parser, then its band
_CASTS = {
    "eta": lambda text: check_eta(float(text)),
    "eta grid": lambda text: check_eta_grid(dataio.parse_grid(text)),
    "tol": lambda text: check_positive(float(text), "tol"),
    "alpha": lambda text: check_alpha(float(text)),
    "q": _listed(lambda text: check_positive(float(text), "q"), "q"),
    "kinds": _listed(choice(*_KIND_ORDER), "risk kind", once=True),
    "mc reps": lambda text: check_mc_reps(int(text), zero=True),
    "k": lambda text: check_size(dimension(int(text)), "k", least=2),
    "seed": lambda text: seed(int(text)),
    "threads": lambda text: dimension(int(text)),  # 0 or less: one worker per CPU
}


_MU0_KEYS = {"mode": (choice(*SIGNAL_MODES), "sphere"), "radius": (real, 1.0), "seed": (seed, 0)}


def _mu0(value):
    """The SignalVector of an explicit mu0 (a list of reals or an array
    payload), or the fields of a sampled one's spec."""
    if isinstance(value, dict) and "data" not in value:
        return read_object(value, _MU0_KEYS, "mu0", nested=True)
    return as_cast(SignalVector)(real_array(value))


# problem config key -> (cast, default)
_PROBLEM_KEYS = {
    "phi": (real, dataclasses.MISSING),
    "eta": (real, 0.0),
    "sigma_sq": (real, dataclasses.MISSING),
    "model": (model_from_json, dataclasses.MISSING),
    "mu0": (_mu0, dataclasses.MISSING),
    "eta_grid": (dataio.eta_grid, None),
}


def _problem_from_json(
    obj: dict, flags: dict | None = None
) -> tuple[ProblemConfig, np.ndarray | None]:
    """The problem and eta grid of a config, or of a run_meta.json config.

    flags are the command-line values a command records in run_meta.json
    next to the problem (risk's kinds, lq's q, mc_reps and seed); read back,
    they must agree with the command line. Each constructor checks its bands.
    """
    flags = flags or {}
    table = {**_PROBLEM_KEYS, **dict.fromkeys(flags, (lambda value: value, None))}
    fields = read_object(obj, table, "problem config")
    for key, value in flags.items():
        if fields[key] is not None and fields[key] != value:
            raise UsageError(
                f"config {key!r} {fields[key]!r} disagrees with the command line {value!r}"
            )
    model, mu0 = fields["model"], fields["mu0"]
    if isinstance(mu0, dict):
        mu0 = sample_signal(mu0["mode"], model.n, mu0["seed"], mu0["radius"])
    config = ProblemConfig(
        phi=fields["phi"], eta=fields["eta"], sigma_sq=fields["sigma_sq"], model=model, mu0=mu0
    )
    grid = fields["eta_grid"]
    return config, None if grid is None else check_eta_grid(grid, "'eta_grid'")


def _resolve_grid(flag_grid, config_grid) -> np.ndarray:
    if flag_grid is None and config_grid is None:
        raise UsageError("an eta grid is required (flag or config)")
    return config_grid if flag_grid is None else flag_grid


def _resolved_problem(cfg_obj: dict, config: ProblemConfig) -> dict:
    """cfg_obj with the fields that grow with n stored as array payloads.

    Those are an explicit model's eigenvalues and basis and an explicit mu0
    list, recorded from the parsed arrays in dataio.encode_array form.
    """
    resolved = dict(cfg_obj)
    model = config.model
    if model.kind == "explicit":
        resolved["model"] = dict(cfg_obj["model"])
        resolved["model"]["eigenvalues"] = dataio.encode_array(model.eigenvalues)
        if model.basis is not None:
            resolved["model"]["basis"] = dataio.encode_array(model.basis)
    if not isinstance(cfg_obj["mu0"], dict):
        resolved["mu0"] = dataio.encode_array(config.mu0.coords)
    return resolved


@dataclasses.dataclass
class _Result:
    """What a command hands to _emit: CSV tables {file name: (header, rows)}
    for out_dir (None for fit), the config run_meta.json records, the
    `# seed=` value, and the stdout key=value report in order."""

    tables: dict = dataclasses.field(default_factory=dict)
    out_dir: str | None = None
    config: dict | None = None
    seed: int | None = None
    report: dict = dataclasses.field(default_factory=dict)


def _out_file(args, header, rows, config: dict, **report) -> _Result:
    """The result of a command that writes one CSV to --out."""
    out_dir, name = os.path.split(os.path.abspath(args.out))
    return _Result({name: (header, rows)}, out_dir, config, report=report)


def _not_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _emit(result: _Result, argv: list[str]) -> None:
    """Check every cell and report value, then write the files, then print."""
    for name, (header, rows) in result.tables.items():
        for row in rows:
            bad = [column for column, value in zip(header, row) if _not_finite(value)]
            if bad:
                raise NumericalError(f"{name} column {bad[0]!r} is not finite at "
                                     f"{header[0]} = {dataio.format_cell(row[0])}")
    for key, value in result.report.items():
        if _not_finite(value):
            raise NumericalError(f"reported {key} is not finite")
    if result.out_dir is not None:
        try:
            os.makedirs(result.out_dir, exist_ok=True)
            for name, (header, rows) in result.tables.items():
                path = os.path.join(result.out_dir, name)
                dataio.write_csv(path, header, rows, seed=result.seed)
            dataio.write_run_meta(result.out_dir, argv, result.config, list(result.tables))
        except OSError as exc:
            raise UsageError(
                f"cannot write {exc.filename or result.out_dir}: {exc.strerror or exc}"
            ) from exc
    for key, value in result.report.items():
        print(f"{key}={dataio.format_cell(value)}")


def _check_output_location(args) -> None:
    """Refuse, before the command computes, an --out that names a directory
    and an --out-dir that names an existing non-directory."""
    out = getattr(args, "out", None)
    if out is not None and (os.path.isdir(out) or not os.path.basename(out)):
        raise UsageError(f"--out {out!r} names a directory, not a file")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None and os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise UsageError(f"--out-dir {out_dir!r} exists and is not a directory")


# fpe.csv column -> EffectiveParams field
_FPE_COLUMNS = {
    "eta": "eta", "tau": "tau_star", "gamma_sq": "gamma_star_sq",
    "tau_prime": "tau_prime", "tau_second": "tau_second",
    "gamma_tilde_sq": "gamma_tilde_sq", "m": "m_val", "m_prime": "m_prime",
    "m_second": "m_second",
}


def _cmd_fpe(args):
    cfg_obj = dataio.load_json(args.config)
    config, cfg_grid = _problem_from_json(cfg_obj)
    etas = _resolve_grid(args.eta_grid, cfg_grid)
    rows = [
        [getattr(p, field) for field in _FPE_COLUMNS.values()]
        for p in solve_grid(config, etas, args.tol)
    ]
    resolved = _resolved_problem(cfg_obj, config)
    resolved["eta_grid"] = [float(e) for e in etas]
    return _out_file(args, list(_FPE_COLUMNS), rows, resolved)


def _cmd_risk(args):
    cfg_obj = dataio.load_json(args.config)
    config, cfg_grid = _problem_from_json(cfg_obj, {"kinds": args.kinds})
    etas = _resolve_grid(args.eta_grid, cfg_grid)
    curves = risk_curves(config, args.kinds, etas)
    rows = []
    for i, eta in enumerate(etas):
        for name in args.kinds:
            c = curves[name]
            deriv = None if c.derivative is None else c.derivative[i]
            rows.append((eta, name, c.theoretical[i], c.rmt[i], deriv))
    resolved = _resolved_problem(cfg_obj, config)
    resolved["eta_grid"] = [float(e) for e in etas]
    resolved["kinds"] = args.kinds
    return _out_file(args, ["eta", "kind", "theoretical", "rmt", "derivative"], rows, resolved)


def _cmd_lq(args):
    flags = {"q": args.q, "mc_reps": args.mc_reps, "seed": args.seed}
    cfg_obj = dataio.load_json(args.config)
    config, _ = _problem_from_json(cfg_obj, flags)
    config = config.with_eta(args.eta)
    params = solve_effective(config)
    diag = lq_gamma_diag(None, config.model, params, config.mu0.norm)
    rows = []
    header = ["q", "risk"]
    if args.mc_reps:
        header += ["mc_mean", "mc_stderr"]
    for q in args.q:
        row = [q, lq_risk(q, diag, config.model.n)]
        if args.mc_reps:
            mean, se = seq_model_lq_mc(
                q,
                None,
                config.model,
                config.mu0,
                np.sqrt(params.gamma_tilde_sq),
                params.tau_star,
                args.mc_reps,
                args.seed,
            )
            row += [mean, se]
        rows.append(tuple(row))
    resolved = _resolved_problem(cfg_obj, config)
    resolved.update(flags, eta=args.eta)
    return _out_file(args, header, rows, resolved)


def _fit_at(data, eta: float):
    if eta == 0:
        return ridgeless_fit(data)
    return sweep_ridge_fit(data, eta)


def _cmd_fit(args):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    fit = _fit_at(data, args.eta)
    tau = tau_hat(data, args.eta)
    gamma = gamma_hat(data, args.eta)
    raw, clamped = sigma_hat_sq(gamma, tau, args.eta, data.phi, fit.mu_hat, data.model)
    return _Result(report={
        "m": data.m,
        "n": data.n,
        "eta": args.eta,
        "mu_hat_norm": float(np.linalg.norm(fit.mu_hat)),
        "resid_norm": float(np.linalg.norm(fit.r_hat)),
        "df": df_hat(data, args.eta),
        "tau_hat": tau,
        "gamma_hat": gamma,
        "sigma_hat_sq": raw,
        "sigma_hat_sq_clamped": clamped,
    })


def _cmd_tune(args):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    if args.method == "gcv":
        result = gcv_select(data, args.grid)
    else:
        result = kfold_select(data, args.grid, args.k, args.seed)
    config = {"data": args.data, "method": args.method, "k": args.k, "seed": args.seed,
              "grid": [float(e) for e in args.grid]}
    rows = list(zip(result.etas, result.objective))
    return _out_file(
        args, ["eta", "objective"], rows, config,
        eta_hat=result.eta_hat, method=result.method,
    )


def _cmd_ci(args):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    fit = _fit_at(data, args.eta)
    tau = tau_hat(data, args.eta)
    gamma = gamma_hat(data, args.eta)
    report = confidence_intervals(
        debias(fit.mu_hat, tau, data.model),
        gamma,
        data.model,
        args.alpha,
        data.mu0,
    )
    truth = None if data.mu0 is None else data.mu0.coords
    rows = []
    for j in range(data.n):
        covered = None
        if truth is not None:
            covered = int(report.lower[j] <= truth[j] <= report.upper[j])
        rows.append((j + 1, report.lower[j], report.upper[j], covered))
    lines = {} if report.coverage is None else {"coverage": report.coverage}
    config = {"data": args.data, "eta": args.eta, "alpha": args.alpha}
    return _out_file(
        args, ["j", "lower", "upper", "covered"], rows, config, **lines, gamma_hat=gamma
    )


def _experiment_config(args) -> ExperimentConfig:
    threads, env = args.threads, os.environ.get("RIDGELAB_THREADS")
    if threads is None and env is not None:
        threads = coerce(_CASTS["threads"], env, "RIDGELAB_THREADS", UsageError)
    config = ExperimentConfig.from_json(dataio.load_json(args.config))
    if threads is not None:
        config = dataclasses.replace(config, threads=threads)
    return config


def _note_skipped(experiment: str, attempted: int, failed, which: str = "") -> None:
    """One stderr line naming the skipped replications, if any were.

    which names them; by default the entries of failed are rep indices.
    """
    if failed:
        which = which or f"rep indices {', '.join(str(rep) for rep in failed)}"
        print(
            f"note: {experiment} skipped {len(failed)} of {attempted} replications "
            f"({which})",
            file=sys.stderr,
        )


def _cmd_sim_fig1(args):
    config = _experiment_config(args)
    summary = run_risk_experiment(config, ctx=0)
    argmin = run_argmin_experiment(config, ctx=1)
    _note_skipped("risk experiment", summary.reps, summary.failed)
    _note_skipped(
        "argmin experiment", len(argmin.rep_indices) + len(argmin.failed), argmin.failed
    )

    curve_rows = [
        (float(eta), kind, summary.emp_mean[kind][i], summary.emp_sd[kind][i],
         summary.theoretical[kind][i], summary.rmt[kind][i])
        for i, eta in enumerate(summary.etas) for kind in _KIND_ORDER
    ]
    argmin_rows = [
        (rep, kind, argmin.eta_hat[kind][pos], argmin.eta_star)
        for pos, rep in enumerate(argmin.rep_indices) for kind in ("pred", "est", "ins")
    ]
    tables = {
        "risk_curves.csv": (
            ["eta", "kind", "emp_mean", "emp_sd", "theoretical", "rmt"], curve_rows
        ),
        "argmin.csv": (["rep", "kind", "eta_hat", "eta_star"], argmin_rows),
    }
    return _Result(tables, args.out_dir, config.to_json(), config.master_seed)


def _cmd_sim_fig2(args):
    config = _experiment_config(args)
    summary = run_tuning_experiment(config)
    _note_skipped(
        "tuning experiment",
        summary.reps * len(summary.phis),
        summary.failed,
        ", ".join(
            f"phi={dataio.format_cell(summary.phis[pi])} rep {rep}"
            for pi, rep in summary.failed
        ),
    )

    methods = ("gcv", f"cv{config.k}", "oracle")
    tuning_rows = [
        (float(phi), method, kind, summary.risk_mean[(method, kind)][pi],
         summary.risk_sd[(method, kind)][pi])
        for pi, phi in enumerate(summary.phis) for method in methods
        for kind in ("pred", "est", "ins")
    ]
    coverage_rows = [
        (float(phi), method, summary.coverage_mean[method][pi],
         summary.ci_len_mean[method][pi], summary.oracle_len[pi])
        for pi, phi in enumerate(summary.phis) for method in methods
    ]
    tables = {
        "tuning.csv": (["phi", "method", "kind", "risk_mean", "risk_sd"], tuning_rows),
        "coverage.csv": (
            ["phi", "method", "coverage_mean", "ci_len_mean", "oracle_len"], coverage_rows
        ),
    }
    return _Result(tables, args.out_dir, config.to_json(), config.master_seed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ridgelab", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fpe", help="solve the effective-parameter fixed point")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-grid", type=_flag("eta grid"), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=_flag("tol"), default=1e-12)
    p.set_defaults(handler=_cmd_fpe)

    p = sub.add_parser("risk", help="theoretical and RMT risk curves")
    p.add_argument("--config", required=True)
    p.add_argument("--kinds", type=_flag("kinds"), default="pred,est,ins,res")
    p.add_argument("--eta-grid", type=_flag("eta grid"), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("lq", help="closed-form lq risks (large-n limit at fixed q)")
    p.add_argument("--config", required=True)
    p.add_argument("--q", type=_flag("q"), default="1,2,4")
    p.add_argument("--eta", type=_flag("eta"), required=True)
    p.add_argument("--mc-reps", type=_flag("mc reps"), default=0)
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_lq)

    p = sub.add_parser("fit", help="fit one ridge(less) estimate and summarize")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=_flag("eta"), required=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("tune", help="select eta by GCV or k-fold CV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("gcv", "cv"), required=True)
    p.add_argument("--k", type=_flag("k"), default=5)
    p.add_argument("--grid", type=_flag("eta grid"), required=True)
    p.add_argument("--seed", type=_flag("seed"), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("ci", help="debiased confidence intervals")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=_flag("eta"), required=True)
    p.add_argument("--alpha", type=_flag("alpha"), default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ci)

    p = sub.add_parser("sim", help="Monte Carlo experiment pipelines")
    sim_sub = p.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    for name, handler in (("fig1", _cmd_sim_fig1), ("fig2", _cmd_sim_fig2)):
        sp = sim_sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", required=True)
        sp.add_argument("--threads", type=_flag("threads"), default=None)
        sp.set_defaults(handler=handler)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        _check_output_location(args)
        _emit(args.handler(args), argv)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
