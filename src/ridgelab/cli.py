"""Command-line front end.

Exit codes: 0 on success, 1 on usage or input errors, 2 on numerical
failures (no fixed point in the requested regime, non-convergence,
ill-conditioning). Commands that fail write nothing but a diagnostic
line to stderr; file outputs are emitted only after the computation has
finished. Commands with file outputs also drop a run_meta.json next to
them recording the resolved configuration and the argv that reproduces
the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import dataio
from ._version import __version__
from .errors import InputError, NumericalError, UsageError, coerce, integer
from .fixedpoint import ProblemConfig, solve_effective
from .regress import (
    confidence_intervals,
    debias,
    df_hat,
    gamma_hat,
    gcv_select,
    kfold_select,
    ridge_fit,
    ridgeless_fit,
    sigma_hat_sq,
    tau_hat,
)
from .riskengine import lq_gamma_diag, lq_risk, risk_curves, solve_grid
# unused here; ridgebench/tracer.py wraps these names at this module
from .riskengine import risk_derivative, rmt_risk, theoretical_risk  # noqa: F401
from .simlab import (
    ExperimentConfig,
    run_argmin_experiment,
    run_risk_experiment,
    run_tuning_experiment,
    sample_signal,
)
from .spectrum import SignalVector, model_from_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _problem_from_json(
    obj: dict, flags: dict | None = None
) -> tuple[ProblemConfig, np.ndarray | None]:
    """The problem and eta grid of a config, or of a run_meta.json config.

    flags are the command-line values a command records in run_meta.json
    next to the problem (risk's kinds, lq's q, mc_reps and seed); read back,
    they must agree with the command line.
    """
    if not isinstance(obj, dict):
        raise UsageError("problem config must be a JSON object")
    flags = flags or {}
    unknown = set(obj) - {"phi", "eta", "sigma_sq", "model", "mu0", "eta_grid"} - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in flags.items():
        if key in obj and obj[key] != value:
            raise UsageError(
                f"config {key!r} {obj[key]!r} disagrees with the command line {value!r}"
            )
    for key in ("phi", "sigma_sq", "model", "mu0"):
        if key not in obj:
            raise UsageError(f"problem config is missing {key!r}")
    model = model_from_json(obj["model"])
    mu0_spec = obj["mu0"]
    if isinstance(mu0_spec, dict) and "data" in mu0_spec:
        try:
            mu0 = SignalVector(dataio.decode_array(mu0_spec))
        except InputError as exc:
            raise InputError(f"malformed 'mu0': {exc}") from exc
    elif isinstance(mu0_spec, dict):
        unknown = set(mu0_spec) - {"mode", "radius", "seed"}
        if unknown:
            raise UsageError(f"unknown mu0 keys: {sorted(unknown)}")
        mu0 = sample_signal(
            mu0_spec.get("mode", "sphere"),
            model.n,
            coerce(integer, mu0_spec.get("seed", 0), "mu0 seed", UsageError),
            coerce(float, mu0_spec.get("radius", 1.0), "mu0 radius", UsageError),
        )
    else:
        mu0 = SignalVector(coerce(_float_array, mu0_spec, "'mu0'", UsageError))
    config = ProblemConfig(
        phi=coerce(float, obj["phi"], "'phi'", UsageError),
        eta=coerce(float, obj.get("eta", 0.0), "'eta'", UsageError),
        sigma_sq=coerce(float, obj["sigma_sq"], "'sigma_sq'", UsageError),
        model=model,
        mu0=mu0,
    )
    grid = None
    if obj.get("eta_grid") is not None:
        spec = obj["eta_grid"]
        grid = (
            dataio.parse_grid(spec) if isinstance(spec, str)
            else coerce(_float_array, spec, "'eta_grid'", UsageError)
        )
    return config, grid


def _resolve_grid(flag_value, config_grid, fallback=None) -> np.ndarray:
    if flag_value is not None:
        return dataio.parse_grid(flag_value)
    if config_grid is not None:
        return config_grid
    if fallback is not None:
        return dataio.parse_grid(fallback)
    raise UsageError("an eta grid is required (flag or config)")


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


def _write_meta(out_path: str, argv: list[str], config: dict, outputs: list[str]):
    dataio.write_run_meta(
        os.path.dirname(os.path.abspath(out_path)) if not os.path.isdir(out_path)
        else out_path,
        argv,
        config,
        outputs,
    )


# fpe.csv column -> EffectiveParams field
_FPE_COLUMNS = {
    "eta": "eta", "tau": "tau_star", "gamma_sq": "gamma_star_sq",
    "tau_prime": "tau_prime", "tau_second": "tau_second",
    "gamma_tilde_sq": "gamma_tilde_sq", "m": "m_val", "m_prime": "m_prime",
    "m_second": "m_second",
}


def _cmd_fpe(args, argv):
    cfg_obj = dataio.load_json(args.config)
    config, cfg_grid = _problem_from_json(cfg_obj)
    etas = _resolve_grid(args.eta_grid, cfg_grid)
    rows = [
        [getattr(p, field) for field in _FPE_COLUMNS.values()]
        for p in solve_grid(config, etas, args.tol)
    ]
    dataio.write_csv(args.out, list(_FPE_COLUMNS), rows)
    resolved = _resolved_problem(cfg_obj, config)
    resolved["eta_grid"] = [float(e) for e in etas]
    _write_meta(args.out, argv, resolved, [os.path.basename(args.out)])


_KIND_ORDER = ("pred", "est", "ins", "res")


def _cmd_risk(args, argv):
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    bad = [k for k in kinds if k not in _KIND_ORDER]
    if bad:
        raise UsageError(f"unknown risk kinds {bad}; choose from {_KIND_ORDER}")
    cfg_obj = dataio.load_json(args.config)
    config, cfg_grid = _problem_from_json(cfg_obj, {"kinds": kinds})
    etas = _resolve_grid(args.eta_grid, cfg_grid)
    curves = risk_curves(config, kinds, etas)
    rows = []
    for i, eta in enumerate(etas):
        for name in kinds:
            c = curves[name]
            deriv = None if c.derivative is None else c.derivative[i]
            rows.append((eta, name, c.theoretical[i], c.rmt[i], deriv))
    dataio.write_csv(args.out, ["eta", "kind", "theoretical", "rmt", "derivative"], rows)
    resolved = _resolved_problem(cfg_obj, config)
    resolved["eta_grid"] = [float(e) for e in etas]
    resolved["kinds"] = kinds
    _write_meta(args.out, argv, resolved, [os.path.basename(args.out)])


def _cmd_lq(args, argv):
    try:
        qs = [float(tok) for tok in args.q.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed q list {args.q!r}") from exc
    if not qs:
        raise UsageError("at least one q is required")
    flags = {"q": qs, "mc_reps": args.mc_reps, "seed": args.seed}
    cfg_obj = dataio.load_json(args.config)
    config, _ = _problem_from_json(cfg_obj, flags)
    config = config.with_eta(args.eta)
    params = solve_effective(config)
    diag = lq_gamma_diag(None, config.model, params, config.mu0.norm)
    rows = []
    header = ["q", "risk"]
    if args.mc_reps:
        header += ["mc_mean", "mc_stderr"]
    for q in qs:
        row = [q, lq_risk(q, diag, config.model.n)]
        if args.mc_reps:
            from .simlab import seq_model_lq_mc

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
    dataio.write_csv(args.out, header, rows)
    resolved = _resolved_problem(cfg_obj, config)
    resolved.update(flags, eta=args.eta)
    _write_meta(args.out, argv, resolved, [os.path.basename(args.out)])


def _fit_at(data, eta: float):
    if eta == 0:
        return ridgeless_fit(data)
    return ridge_fit(data, eta)


def _cmd_fit(args, argv):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    fit = _fit_at(data, args.eta)
    tau = tau_hat(data, args.eta)
    gamma = gamma_hat(data, fit, args.eta)
    raw, clamped = sigma_hat_sq(gamma, tau, args.eta, data.phi, fit.mu_hat, data.model)
    print(f"m={data.m}")
    print(f"n={data.n}")
    print(f"eta={dataio.format_cell(args.eta)}")
    print(f"mu_hat_norm={dataio.format_cell(float(np.linalg.norm(fit.mu_hat)))}")
    print(f"resid_norm={dataio.format_cell(float(np.linalg.norm(fit.r_hat)))}")
    print(f"df={dataio.format_cell(df_hat(data, args.eta))}")
    print(f"tau_hat={dataio.format_cell(tau)}")
    print(f"gamma_hat={dataio.format_cell(gamma)}")
    print(f"sigma_hat_sq={dataio.format_cell(raw)}")
    print(f"sigma_hat_sq_clamped={dataio.format_cell(clamped)}")


def _cmd_tune(args, argv):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    etas = dataio.parse_grid(args.grid)
    if args.method == "gcv":
        result = gcv_select(data, etas)
    else:
        result = kfold_select(data, etas, args.k, args.seed)
    rows = list(zip(result.etas, result.objective))
    dataio.write_csv(args.out, ["eta", "objective"], rows)
    print(f"eta_hat={dataio.format_cell(result.eta_hat)}")
    print(f"method={result.method}")
    _write_meta(
        args.out,
        argv,
        {
            "data": args.data,
            "method": args.method,
            "k": args.k,
            "seed": args.seed,
            "grid": [float(e) for e in etas],
        },
        [os.path.basename(args.out)],
    )


def _cmd_ci(args, argv):
    data = dataio.dataset_from_json(dataio.load_json(args.data))
    fit = _fit_at(data, args.eta)
    tau = tau_hat(data, args.eta)
    gamma = gamma_hat(data, fit, args.eta)
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
    dataio.write_csv(args.out, ["j", "lower", "upper", "covered"], rows)
    if report.coverage is not None:
        print(f"coverage={dataio.format_cell(report.coverage)}")
    print(f"gamma_hat={dataio.format_cell(gamma)}")
    _write_meta(
        args.out,
        argv,
        {"data": args.data, "eta": args.eta, "alpha": args.alpha},
        [os.path.basename(args.out)],
    )


def _experiment_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(dataio.load_json(args.config))
    threads = args.threads
    if threads is None:
        env = os.environ.get("RIDGELAB_THREADS")
        if env is not None:
            try:
                threads = int(env)
            except ValueError as exc:
                raise UsageError(f"RIDGELAB_THREADS={env!r} is not an integer") from exc
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


def _cmd_sim_fig1(args, argv):
    config = _experiment_config(args)
    if config.n is None:
        raise UsageError("fig1 config must fix n")
    summary = run_risk_experiment(config, ctx=0)
    argmin = run_argmin_experiment(config, ctx=1)
    _note_skipped("risk experiment", summary.reps, summary.failed)
    _note_skipped(
        "argmin experiment", len(argmin.rep_indices) + len(argmin.failed), argmin.failed
    )
    os.makedirs(args.out_dir, exist_ok=True)

    curve_rows = []
    for i, eta in enumerate(summary.etas):
        for kind in _KIND_ORDER:
            curve_rows.append(
                (
                    float(eta),
                    kind,
                    summary.emp_mean[kind][i],
                    summary.emp_sd[kind][i],
                    summary.theoretical[kind][i],
                    summary.rmt[kind][i],
                )
            )
    curves_path = os.path.join(args.out_dir, "risk_curves.csv")
    dataio.write_csv(
        curves_path,
        ["eta", "kind", "emp_mean", "emp_sd", "theoretical", "rmt"],
        curve_rows,
        seed=config.master_seed,
    )

    argmin_rows = []
    for pos, rep in enumerate(argmin.rep_indices):
        for kind in ("pred", "est", "ins"):
            argmin_rows.append(
                (
                    rep,
                    kind,
                    argmin.deviations[kind][pos] + argmin.eta_star,
                    argmin.eta_star,
                )
            )
    argmin_path = os.path.join(args.out_dir, "argmin.csv")
    dataio.write_csv(
        argmin_path,
        ["rep", "kind", "eta_hat", "eta_star"],
        argmin_rows,
        seed=config.master_seed,
    )
    dataio.write_run_meta(
        args.out_dir,
        argv,
        config.to_json(),
        ["risk_curves.csv", "argmin.csv"],
    )


def _cmd_sim_fig2(args, argv):
    config = _experiment_config(args)
    if config.phi_grid is None:
        raise UsageError("fig2 config must provide phi_grid")
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
    os.makedirs(args.out_dir, exist_ok=True)

    methods = ("gcv", f"cv{config.k}", "oracle")
    tuning_rows = []
    for pi, phi in enumerate(summary.phis):
        for method in methods:
            for kind in ("pred", "est", "ins"):
                tuning_rows.append(
                    (
                        float(phi),
                        method,
                        kind,
                        summary.risk_mean[(method, kind)][pi],
                        summary.risk_sd[(method, kind)][pi],
                    )
                )
    tuning_path = os.path.join(args.out_dir, "tuning.csv")
    dataio.write_csv(
        tuning_path,
        ["phi", "method", "kind", "risk_mean", "risk_sd"],
        tuning_rows,
        seed=config.master_seed,
    )

    coverage_rows = []
    for pi, phi in enumerate(summary.phis):
        for method in methods:
            coverage_rows.append(
                (
                    float(phi),
                    method,
                    summary.coverage_mean[method][pi],
                    summary.ci_len_mean[method][pi],
                    summary.oracle_len[pi],
                )
            )
    coverage_path = os.path.join(args.out_dir, "coverage.csv")
    dataio.write_csv(
        coverage_path,
        ["phi", "method", "coverage_mean", "ci_len_mean", "oracle_len"],
        coverage_rows,
        seed=config.master_seed,
    )
    dataio.write_run_meta(
        args.out_dir,
        argv,
        config.to_json(),
        ["tuning.csv", "coverage.csv"],
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="ridgelab", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fpe", help="solve the effective-parameter fixed point")
    p.add_argument("--config", required=True)
    p.add_argument("--eta-grid", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_fpe)

    p = sub.add_parser("risk", help="theoretical and RMT risk curves")
    p.add_argument("--config", required=True)
    p.add_argument("--kinds", default="pred,est,ins,res")
    p.add_argument("--eta-grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("lq", help="closed-form lq risks")
    p.add_argument("--config", required=True)
    p.add_argument("--q", default="1,2,4")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_lq)

    p = sub.add_parser("fit", help="fit one ridge(less) estimate and summarize")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("tune", help="select eta by GCV or k-fold CV")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("gcv", "cv"), required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--grid", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("ci", help="debiased confidence intervals")
    p.add_argument("--data", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ci)

    p = sub.add_parser("sim", help="Monte Carlo experiment pipelines")
    sim_sub = p.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    for name, handler in (("fig1", _cmd_sim_fig1), ("fig2", _cmd_sim_fig2)):
        sp = sim_sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out-dir", required=True)
        sp.add_argument("--threads", type=int, default=None)
        sp.set_defaults(handler=handler)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.handler(args, argv)
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
