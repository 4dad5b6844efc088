"""End-to-end CLI checks: schemas, exit codes, reproducible pipelines."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ridgelab import (
    Dataset,
    Isotropic,
    ProblemConfig,
    SignalVector,
    __version__,
    lq_gamma_diag,
    lq_risk,
    risk_curves,
    sample_signal,
    solve_effective,
    tau_hat,
    theoretical_risk,
)
from ridgelab import cli, riskengine
from ridgelab.cli import run
from ridgelab.dataio import (
    dataset_to_json,
    decode_array,
    encode_array,
    load_json,
    read_csv,
)
from ridgelab.riskengine import RiskKind


def write_problem(tmp_path, **overrides):
    obj = {
        "phi": 0.5,
        "sigma_sq": 1.0,
        "model": {"kind": "isotropic", "scale": 1.0, "n": 16},
        "mu0": {"mode": "sphere", "radius": 1.0, "seed": 3},
    }
    obj.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return path


def write_dataset(tmp_path, m=8, n=12, seed=0, name="data.json"):
    rng = np.random.default_rng(seed)
    model = Isotropic(1.0, n)
    mu0 = sample_signal("sphere", n, seed + 1)
    x = rng.standard_normal((m, n))
    xi = rng.standard_normal(m)
    data = Dataset(x=x, y=x @ mu0.coords + xi, model=model, mu0=mu0, xi=xi)
    path = tmp_path / name
    path.write_text(json.dumps(dataset_to_json(data)))
    return path, data


def reference_problem(n=16, eta=0.0):
    return ProblemConfig(
        phi=0.5,
        eta=eta,
        sigma_sq=1.0,
        model=Isotropic(1.0, n),
        mu0=sample_signal("sphere", n, 3),
    )


def test_fpe_csv_matches_solver(tmp_path):
    config = write_problem(tmp_path)
    out = tmp_path / "fpe.csv"
    argv = ["fpe", "--config", str(config), "--eta-grid", "0:1:5", "--out", str(out)]
    assert run(argv) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["eta", "tau", "gamma_sq"]
    assert len(rows) == 5
    for row in rows:
        p = solve_effective(reference_problem(eta=row[0]))
        assert row[1] == p.tau_star  # repr cells re-parse exactly
        assert row[2] == p.gamma_star_sq
        assert row[7] == p.m_prime

    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["rerun_argv"] == argv
    assert meta["outputs"] == ["fpe.csv"]
    assert meta["version"] == __version__

    before = out.read_bytes()
    assert run(meta["rerun_argv"]) == 0
    assert out.read_bytes() == before


THEORY_COMMANDS = (("fpe", []), ("risk", []), ("lq", ["--eta", "0.5"]))


def test_run_meta_stores_the_spectrum_as_an_array_payload(tmp_path):
    n = 10_000
    lam = np.geomspace(20.0, 0.05, n)
    config = write_problem(
        tmp_path,
        model={"kind": "explicit", "n": n, "eigenvalues": lam.tolist()},
        eta_grid="0:1.5:5",
    )
    for name, extra in THEORY_COMMANDS:
        out = tmp_path / name / f"{name}.csv"
        out.parent.mkdir()
        assert run([name, "--config", str(config), *extra, "--out", str(out)]) == 0
        meta_path = out.parent / "run_meta.json"
        meta = json.loads(meta_path.read_text())
        recorded = decode_array(meta["config"]["model"]["eigenvalues"])
        assert recorded.shape == lam.shape
        assert recorded.tobytes() == lam.tobytes()
        # base64 spends 4/3 of a byte per byte; 10^4 eigenvalues as
        # indented text took about 2.5 times this bound
        assert meta_path.stat().st_size < 2 * 8 * n + 4096
        before = out.read_bytes()
        out.unlink()
        assert run(meta["rerun_argv"]) == 0
        assert out.read_bytes() == before


def test_run_meta_stores_basis_and_explicit_mu0_as_array_payloads(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 6
    lam = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mu0 = rng.standard_normal(n)
    model = {"kind": "explicit", "eigenvalues": lam.tolist(), "basis": basis.tolist()}
    config = write_problem(tmp_path, model=model, mu0=mu0.tolist(), eta_grid="0.5:1:2")
    for name, extra in THEORY_COMMANDS:
        out = tmp_path / name / f"{name}.csv"
        out.parent.mkdir()
        assert run([name, "--config", str(config), *extra, "--out", str(out)]) == 0
        meta = json.loads((out.parent / "run_meta.json").read_text())
        recorded = meta["config"]
        assert recorded["model"]["kind"] == "explicit"
        for got, want in (
            (recorded["model"]["eigenvalues"], lam),
            (recorded["model"]["basis"], basis),
            (recorded["mu0"], mu0),
        ):
            np.testing.assert_array_equal(decode_array(got), want)
        # the recorded config, payloads and flags included, reads back as
        # --config and reproduces the CSV byte for byte
        readback = out.parent / "recorded.json"
        readback.write_text(json.dumps(recorded))
        again = out.parent / f"again_{name}.csv"
        assert run([name, "--config", str(readback), *extra, "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()
    # a recorded flag that disagrees with the command line is refused
    readback = tmp_path / "risk" / "recorded.json"
    assert run(["risk", "--config", str(readback), "--kinds", "pred", "--out", str(again)]) == 1
    assert "usage error: config 'kinds'" in capsys.readouterr().err
    # a sampled signal keeps its spec, and structured models stay as given
    config = write_problem(tmp_path)
    out = tmp_path / "fpe.csv"
    assert run(["fpe", "--config", str(config), "--eta-grid", "0:1:2", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["config"]["model"] == {"kind": "isotropic", "scale": 1.0, "n": 16}
    assert meta["config"]["mu0"] == {"mode": "sphere", "radius": 1.0, "seed": 3}


def fpe_columns_40_digits(config, eta: float, tau: float) -> list:
    """fpe's columns after eta, in 40-digit arithmetic on the exact float inputs.

    tau is refined from the CLI's value by Newton steps on the fixed point;
    the other columns follow from their closed forms at that root.
    """
    with mpmath.workdps(40):
        lam, counts = (list(map(mpmath.mpf, a)) for a in config.model.pairs())
        masses = list(map(mpmath.mpf, config.mu0.masses(config.model)))
        n, phi = config.model.n, mpmath.mpf(config.phi)
        eta, sigma_sq = mpmath.mpf(eta), mpmath.mpf(config.sigma_sq)

        def trace(t, p, q):
            return mpmath.fsum(c * v**q / (v + t) ** p for c, v in zip(counts, lam)) / n

        t = mpmath.mpf(tau)
        for _ in range(4):
            f = trace(t, 1, 1) + eta / t - phi
            t += f / (trace(t, 2, 1) + eta / t**2)
        signal = mpmath.fsum(w * v / (v + t) ** 2 for w, v in zip(masses, lam))
        gamma_sq = (sigma_sq + t * t * signal) / (eta / t + t * trace(t, 2, 1))
        g0 = eta + t * t * trace(t, 2, 1)
        tp = t / g0
        ts = -2 * t * t * tp * trace(t, 3, 2) / g0**2
        gt = sigma_sq * tp + mpmath.fsum(masses) * (t - eta * tp)
        m_second = -phi * phi * (ts * t - 2 * tp * tp) / t**3
        return [t, gamma_sq, tp, ts, gt, 1 / t, phi * tp / t**2, m_second]


def test_fpe_on_shipped_problem_matches_40_digit_evaluation(tmp_path):
    # every theory-derived fpe cell lies within 1e-13 relative of its exact
    # value; the solver before monotone Newton stopped on |F| <= 1e-12 and
    # left these cells up to 2.7e-12 off
    shipped = Path(__file__).resolve().parent.parent / "configs" / "problem.json"
    config, _ = cli._problem_from_json(load_json(str(shipped)))
    out = tmp_path / "fpe.csv"
    assert run(["fpe", "--config", str(shipped), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 31
    for row in rows:
        exact = fpe_columns_40_digits(config, row[0], row[1])
        for got, want in zip(row[1:], exact):
            assert abs((got - want) / want) <= 1e-13, (row[0], got, want)


def test_fpe_tol(tmp_path, capsys):
    # the stop rule bounds the last Newton step relative to 1/tau, and the
    # error left after it is of order tol^2
    config = write_problem(tmp_path)
    tight, loose = tmp_path / "tight.csv", tmp_path / "loose.csv"
    base = ["fpe", "--config", str(config), "--eta-grid", "0:1.5:7"]
    assert run(base + ["--out", str(tight)]) == 0
    assert run(base + ["--tol", "1e-6", "--out", str(loose)]) == 0
    for a, b in zip(read_csv(tight)[1], read_csv(loose)[1]):
        assert b[1] == pytest.approx(a[1], rel=1e-10)
    for bad in ("-1", "0", "nan", "inf"):
        assert run(base + ["--tol", bad, "--out", str(tmp_path / "x.csv")]) == 1
        assert "tol must be a positive finite real" in capsys.readouterr().err


def test_fpe_grid_from_config(tmp_path):
    config = write_problem(tmp_path, eta_grid=[0.5, 1.0])
    out = tmp_path / "fpe.csv"
    assert run(["fpe", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == [0.5, 1.0]


def test_risk_csv_schema(tmp_path):
    config = write_problem(tmp_path)
    out = tmp_path / "risk.csv"
    code = run(
        [
            "risk",
            "--config", str(config),
            "--kinds", "pred,res",
            "--eta-grid", "0.5:1:2",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["eta", "kind", "theoretical", "rmt", "derivative"]
    assert [(r[0], r[1]) for r in rows] == [
        (0.5, "pred"), (0.5, "res"), (1.0, "pred"), (1.0, "res"),
    ]
    base = reference_problem()
    for row in rows:
        p = solve_effective(base.with_eta(row[0]))
        expected = theoretical_risk(RiskKind(row[1]), p, 1.0, 0.5)
        assert row[2] == expected
    # the residual risk has no eta-derivative column entry
    assert rows[1][4] is None and rows[0][4] is not None


def test_risk_csv_is_one_grid_solve_read_off_risk_curves(tmp_path):
    config = write_problem(tmp_path)
    out = tmp_path / "risk.csv"
    argv = ["risk", "--config", str(config), "--eta-grid", "0:1.5:7", "--out", str(out)]
    wrapped = riskengine.solve_effective
    with mock.patch.object(riskengine, "solve_effective", wraps=wrapped) as solves:
        assert run(argv) == 0
    assert solves.call_count == 7
    _, rows = read_csv(out)
    kinds = ["pred", "est", "ins", "res"]
    curves = risk_curves(reference_problem(), kinds, np.linspace(0.0, 1.5, 7))
    assert [row[1] for row in rows] == kinds * 7
    for i, row in enumerate(rows):
        curve = curves[row[1]]
        deriv = None if curve.derivative is None else curve.derivative[i // 4]
        assert row[0] == curve.etas[i // 4]
        assert row[2:] == [curve.theoretical[i // 4], curve.rmt[i // 4], deriv]


def test_risk_requires_an_ascending_grid(tmp_path, capsys):
    config = write_problem(tmp_path, eta_grid=[1.0, 0.5])
    out = tmp_path / "risk.csv"
    assert run(["risk", "--config", str(config), "--out", str(out)]) == 1
    assert "input error: eta grid must be strictly ascending" in capsys.readouterr().err
    assert not out.exists()


def test_risk_rejects_unknown_kind(tmp_path, capsys):
    config = write_problem(tmp_path)
    out = tmp_path / "risk.csv"
    code = run(
        ["risk", "--config", str(config), "--kinds", "pred,mse", "--out", str(out)]
    )
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_lq_closed_form_and_mc_columns(tmp_path):
    config = write_problem(tmp_path)
    out = tmp_path / "lq.csv"
    assert run(
        ["lq", "--config", str(config), "--q", "2", "--eta", "0.5", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["q", "risk"]
    base = reference_problem(eta=0.5)
    params = solve_effective(base)
    diag = lq_gamma_diag(None, base.model, params, 1.0)
    assert rows[0] == [2.0, lq_risk(2.0, diag, 16)]

    out2 = tmp_path / "lq_mc.csv"
    assert run(
        [
            "lq",
            "--config", str(config),
            "--q", "1,2",
            "--eta", "0.5",
            "--mc-reps", "200",
            "--seed", "4",
            "--out", str(out2),
        ]
    ) == 0
    header2, rows2 = read_csv(out2)
    assert header2 == ["q", "risk", "mc_mean", "mc_stderr"]
    for row in rows2:
        assert abs(row[2] - row[1]) < 0.1 * row[1] + 10 * row[3]


def test_fit_prints_estimates(tmp_path, capsys):
    data_path, data = write_dataset(tmp_path)
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert lines["m"] == "8" and lines["n"] == "12"
    assert float(lines["tau_hat"]) == tau_hat(data, 0.5)
    assert float(lines["df"]) > 0

    # interpolation summary: zero residual, df equals the sample count
    assert run(["fit", "--data", str(data_path), "--eta", "0"]) == 0
    lines = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert float(lines["resid_norm"]) < 1e-10
    assert float(lines["df"]) == pytest.approx(8.0, abs=1e-9)


def test_fit_factors_the_gram_matrix_once(tmp_path, monkeypatch):
    # every data-side estimator reads the dataset's one eigendecomposition;
    # eta > 0 adds the Cholesky solve of ridge_fit, nothing else
    data_path, _ = write_dataset(tmp_path, m=8, n=12, seed=4)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(
        scipy.linalg, "cho_factor", counted("cho_factor", scipy.linalg.cho_factor)
    )
    assert run(["fit", "--data", str(data_path), "--eta", "0"]) == 0
    assert sorted(calls) == ["eigh"]
    calls.clear()
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 0
    assert sorted(calls) == ["cho_factor", "eigh"]


def test_non_finite_dataset_is_an_input_error(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 9))
    y = rng.standard_normal(6)
    y[2] = np.nan
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps(
            {
                "x": encode_array(x),
                "y": encode_array(y),
                "model": Isotropic(1.0, 9).to_json(),
            }
        )
    )
    out = tmp_path / "tune.csv"
    for argv in (
        ["fit", "--data", str(path), "--eta", "0.5"],
        ["tune", "--data", str(path), "--method", "gcv", "--grid", "0.1:1:4",
         "--out", str(out)],
    ):
        assert run(argv) == 1
        assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_array_payload_is_an_input_error(tmp_path, capsys):
    data_path, _ = write_dataset(tmp_path)
    obj = json.loads(data_path.read_text())
    obj["x"]["shape"] = [8.9, 12]
    data_path.write_text(json.dumps(obj))
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 1
    assert "input error" in capsys.readouterr().err


def test_tune_gcv_and_cv(tmp_path, capsys):
    data_path, _ = write_dataset(tmp_path, m=12, n=9, seed=2)
    out = tmp_path / "tune.csv"
    assert run(
        [
            "tune",
            "--data", str(data_path),
            "--method", "gcv",
            "--grid", "0.25:1:4",
            "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["eta", "objective"]
    assert len(rows) == 4
    stdout = capsys.readouterr().out
    assert "method=gcv" in stdout
    eta_hat = float(stdout.split("eta_hat=")[1].splitlines()[0])
    objectives = {row[0]: row[1] for row in rows}
    assert objectives[eta_hat] == min(objectives.values())

    assert run(
        [
            "tune",
            "--data", str(data_path),
            "--method", "cv",
            "--k", "3",
            "--grid", "0.25:1:4",
            "--seed", "1",
            "--out", str(out),
        ]
    ) == 0
    assert "method=cv3" in capsys.readouterr().out


def test_tune_refuses_singular_gram_at_zero(tmp_path, capsys):
    # equal rows make X X^T singular: both methods refuse eta = 0 alike
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 90))
    x[1] = x[0]
    data = Dataset(x=x, y=rng.standard_normal(40), model=Isotropic(1.0, 90))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dataset_to_json(data)))
    out = tmp_path / "tune.csv"
    errors = []
    for method in ("gcv", "cv"):
        argv = ["tune", "--data", str(path), "--method", method, "--k", "4",
                "--grid", "0:1.5:7", "--seed", "1", "--out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical error: X X^T condition")
    assert not out.exists()


def test_tune_cv_refuses_singular_primal_gram_at_zero(tmp_path, capsys):
    # equal columns on an m > n sample: the eta = 0 refit of each training
    # fold inverts a singular X^T X
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 20))
    x[:, 1] = x[:, 0]
    data = Dataset(x=x, y=rng.standard_normal(60), model=Isotropic(1.0, 20))
    path = tmp_path / "dup_cols.json"
    path.write_text(json.dumps(dataset_to_json(data)))
    out = tmp_path / "tune.csv"
    argv = ["tune", "--data", str(path), "--method", "cv", "--k", "5",
            "--grid", "0:1.5:7", "--seed", "1", "--out", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: X^T X condition")
    assert not out.exists()


def test_ci_reports_coverage(tmp_path, capsys):
    data_path, data = write_dataset(tmp_path, m=30, n=20, seed=5)
    out = tmp_path / "ci.csv"
    assert run(
        ["ci", "--data", str(data_path), "--eta", "0.5", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["j", "lower", "upper", "covered"]
    assert len(rows) == 20
    covered = [row[3] for row in rows]
    assert set(covered) <= {0.0, 1.0}
    stdout = capsys.readouterr().out
    coverage_line = float(stdout.split("coverage=")[1].splitlines()[0])
    assert coverage_line == pytest.approx(float(np.mean(covered)), abs=1e-12)


def test_exit_codes(tmp_path, capsys):
    assert run(["fpe", "--config", str(tmp_path / "nope.json"), "--out", "x"]) == 1
    assert "usage error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["fpe", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1

    # interpolation does not exist at phi >= 1: numerical failure, no output
    config = write_problem(tmp_path, phi=2.0)
    out = tmp_path / "never.csv"
    code = run(
        ["fpe", "--config", str(config), "--eta-grid", "0:1:3", "--out", str(out)]
    )
    assert code == 2
    assert "numerical error" in capsys.readouterr().err
    assert not out.exists()

    assert run(["fpe", "--config", str(config), "--bogus", "1"]) == 1

    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("command", ["fpe", "risk"])
def test_overflowed_fixed_point_exits_2_with_no_output(tmp_path, capsys, command):
    # ||mu0||^2 overflows, so gamma^2 is inf; the solve must not pass it on
    config = write_problem(
        tmp_path,
        model={"kind": "explicit", "eigenvalues": [2, 1]},
        mu0=[1e200, 1e200],
        eta_grid="0:1:3",
    )
    out = tmp_path / "out.csv"
    with np.errstate(over="ignore"):
        assert run([command, "--config", str(config), "--out", str(out)]) == 2
    assert "numerical error: fixed-point residuals" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    argv = ["fpe", "--config", "missing.json", "--out", "x.csv"]
    for module in ("ridgelab", "ridgelab.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert "usage error" in proc.stderr or "input error" in proc.stderr
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"phi": "abc"}, "usage error: malformed 'phi'"),
        ({"sigma_sq": None}, "usage error: malformed 'sigma_sq'"),
        ({"mu0": {"mode": "sphere", "seed": "x"}}, "usage error: malformed mu0 seed"),
        ({"mu0": ["a", "b"]}, "usage error: malformed 'mu0'"),
        ({"eta_grid": ["a"]}, "usage error: malformed 'eta_grid'"),
        (
            {"model": {"kind": "isotropic", "scale": "abc", "n": 16}},
            "input error: malformed 'scale' of isotropic model",
        ),
        (
            {"model": {"kind": "isotropic", "scale": 1.0, "n": "x"}},
            "input error: malformed 'n' of isotropic model",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": "abc"}},
            "input error: malformed 'eigenvalues' of explicit model",
        ),
        ({"model": {"kind": "explicit"}}, "input error: explicit model is missing"),
        (
            {"model": {"kind": "isotropic", "scale": 1.0, "n": 16.9}},
            "input error: malformed 'n' of isotropic model",
        ),
        (
            {"model": {"kind": "spiked_uniform", "a": 1.5, "b": 0.5, "n": True}},
            "input error: malformed 'n' of spiked_uniform model",
        ),
        ({"mu0": {"mode": "sphere", "seed": 1.5}}, "usage error: malformed mu0 seed"),
        (
            {"model": {"kind": "explicit", "eigenvalues": {**encode_array(np.ones(2)),
                                                           "data": "!!"}}},
            "input error: malformed 'eigenvalues' of explicit model: malformed array data",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": [1.0] * 16},
             "mu0": {**encode_array(np.ones(16)), "shape": [15]}},
            "input error: malformed 'mu0': array payload has 16 values",
        ),
    ],
)
def test_malformed_problem_config_is_a_typed_error(tmp_path, capsys, overrides, message):
    config = write_problem(tmp_path, **overrides)
    out = tmp_path / "never.csv"
    code = run(["fpe", "--config", str(config), "--eta-grid", "0:1:3", "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def write_fig1_config(tmp_path, **overrides):
    obj = {
        "m": 10,
        "n": 20,
        "model": {"kind": "isotropic", "scale": 1.0},
        "design_dist": "gaussian",
        "noise_dist": "gaussian",
        "eta_grid": [0.0, 0.5, 1.0],
        "reps": 3,
        "seed": 5,
        "threads": 1,
    }
    obj.update(overrides)
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(obj))
    return path


def test_sim_fig1_pipeline_reproducible(tmp_path, monkeypatch):
    monkeypatch.delenv("RIDGELAB_THREADS", raising=False)
    config = write_fig1_config(tmp_path)
    runs = {}
    for tag, extra in [("a", []), ("b", []), ("c", ["--threads", "2"])]:
        out_dir = tmp_path / tag
        code = run(
            ["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]
            + extra
        )
        assert code == 0
        runs[tag] = (
            (out_dir / "risk_curves.csv").read_bytes(),
            (out_dir / "argmin.csv").read_bytes(),
        )
    assert runs["a"] == runs["b"]  # identical bytes across repeat runs
    assert runs["a"] == runs["c"]  # and across thread counts

    header, rows = read_csv(tmp_path / "a" / "risk_curves.csv")
    assert header == ["eta", "kind", "emp_mean", "emp_sd", "theoretical", "rmt"]
    assert len(rows) == 3 * 4
    assert (tmp_path / "a" / "risk_curves.csv").read_text().startswith("# seed=5")

    header, rows = read_csv(tmp_path / "a" / "argmin.csv")
    assert header == ["rep", "kind", "eta_hat", "eta_star"]
    assert len(rows) == 3 * 3
    assert all(row[3] == 1.0 for row in rows)  # eta_star at unit SNR

    meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
    assert meta["outputs"] == ["argmin.csv", "risk_curves.csv"]
    assert meta["config"]["seed"] == 5


def test_sim_fig1_env_threads(tmp_path, monkeypatch):
    config = write_fig1_config(tmp_path)
    base = tmp_path / "base"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(base)]) == 0

    monkeypatch.setenv("RIDGELAB_THREADS", "3")
    envdir = tmp_path / "env"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(envdir)]) == 0
    assert (envdir / "risk_curves.csv").read_bytes() == (
        base / "risk_curves.csv"
    ).read_bytes()

    monkeypatch.setenv("RIDGELAB_THREADS", "many")
    code = run(["sim", "fig1", "--config", str(config), "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_sim_fig2_pipeline(tmp_path):
    obj = {
        "m": 12,
        "phi_grid": [0.75],
        "model": {"kind": "isotropic", "scale": 1.0},
        "design_dist": "gaussian",
        "noise_dist": "gaussian",
        "eta_grid": [0.3, 0.6, 0.9, 1.2],
        "reps": 4,
        "k": 3,
        "seed": 2,
        "threads": 1,
    }
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(obj))
    out_dir = tmp_path / "out"
    assert run(["sim", "fig2", "--config", str(config), "--out-dir", str(out_dir)]) == 0

    header, rows = read_csv(out_dir / "tuning.csv")
    assert header == ["phi", "method", "kind", "risk_mean", "risk_sd"]
    assert len(rows) == 1 * 3 * 3
    assert {row[1] for row in rows} == {"gcv", "cv3", "oracle"}

    header, rows = read_csv(out_dir / "coverage.csv")
    assert header == ["phi", "method", "coverage_mean", "ci_len_mean", "oracle_len"]
    assert len(rows) == 3
    for row in rows:
        assert 0.0 <= row[2] <= 1.0
        assert row[3] > 0 and row[4] > 0

    meta = json.loads((out_dir / "run_meta.json").read_text())
    assert meta["outputs"] == ["coverage.csv", "tuning.csv"]

    again = tmp_path / "again"
    assert run(["sim", "fig2", "--config", str(config), "--out-dir", str(again)]) == 0
    assert (again / "tuning.csv").read_bytes() == (out_dir / "tuning.csv").read_bytes()
    assert (again / "coverage.csv").read_bytes() == (
        out_dir / "coverage.csv"
    ).read_bytes()


def test_sim_reports_skipped_replications(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RIDGELAB_THREADS", raising=False)
    config = write_fig1_config(tmp_path)
    out_dir = tmp_path / "out"
    argv = ["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]
    names = ("risk_curves.csv", "argmin.csv", "run_meta.json")
    assert run(argv) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    before = [(out_dir / name).read_bytes() for name in names]

    risk = cli.run_risk_experiment
    monkeypatch.setattr(
        cli,
        "run_risk_experiment",
        lambda *a, **kw: dataclasses.replace(risk(*a, **kw), failed=(3,)),
    )
    assert run(argv) == 0
    noted = capsys.readouterr()
    assert noted.out == clean.out
    assert noted.err == (
        "note: risk experiment skipped 1 of 3 replications (rep indices 3)\n"
    )
    assert [(out_dir / name).read_bytes() for name in names] == before

    # fig2 names the phi of each skipped rep, whose stream depends on it
    fig2 = tmp_path / "fig2.json"
    fig2.write_text(json.dumps({
        "m": 12, "phi_grid": [0.5, 1.5], "model": {"kind": "isotropic", "scale": 1.0},
        "design_dist": "gaussian", "noise_dist": "gaussian",
        "eta_grid": [0.3, 0.6, 0.9], "reps": 4, "k": 3, "seed": 2, "threads": 1,
    }))
    argv = ["sim", "fig2", "--config", str(fig2), "--out-dir", str(tmp_path / "fig2")]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    tuning = cli.run_tuning_experiment
    monkeypatch.setattr(
        cli,
        "run_tuning_experiment",
        lambda *a, **kw: dataclasses.replace(tuning(*a, **kw), failed=((0, 3), (1, 3))),
    )
    assert run(argv) == 0
    assert capsys.readouterr().err == (
        "note: tuning experiment skipped 2 of 8 replications "
        "(phi=0.5 rep 3, phi=1.5 rep 3)\n"
    )


def test_sim_fig1_requires_fixed_n(tmp_path, capsys):
    config = write_fig1_config(tmp_path)
    obj = json.loads(config.read_text())
    del obj["n"]
    obj["phi_grid"] = [0.5]
    config.write_text(json.dumps(obj))
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"model": "abc"}, "model"),
        ({"model": 5}, "model"),
        ({"m": "x"}, "'m'"),
        ({"reps": None}, "'reps'"),
        ({"eta_grid": ["a"]}, "'eta_grid'"),
        ({"sigma_sq": "x"}, "'sigma_sq'"),
        ({"model": {"kind": "isotropic", "scale": "abc"}}, "'scale'"),
        ({"m": 10.7}, "'m'"),
        ({"m": True}, "'m'"),
        ({"n": 20.5}, "'n'"),
        ({"reps": 2.9}, "'reps'"),
        ({"argmin_reps": 1.5}, "'argmin_reps'"),
        ({"k": 2.5}, "'k'"),
        ({"seed": 5.5}, "'seed'"),
        ({"threads": False}, "'threads'"),
        ({"redraw_signal": "false"}, "'redraw_signal'"),
        ({"redraw_signal": "no"}, "'redraw_signal'"),
        ({"redraw_signal": [0]}, "'redraw_signal'"),
    ],
)
def test_malformed_sim_config_is_an_input_error(tmp_path, capsys, overrides, key):
    config = write_fig1_config(tmp_path, **overrides)
    out_dir = tmp_path / "o"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and key in err
    assert not out_dir.exists()
