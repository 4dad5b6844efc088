"""End-to-end CLI checks: schemas, exit codes, reproducible pipelines."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ridgelab import cli, errors, regress, riskengine, simlab
from ridgelab.cli import run
from ridgelab.dataio import (
    dataset_to_json,
    decode_array,
    encode_array,
    load_json,
)
from ridgelab.riskengine import RiskKind
from oracles import read_csv

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("name, extra", THEORY_COMMANDS)
def test_negative_mu0_radius_is_an_input_error(tmp_path, capsys, name, extra):
    # a radius of -1 used to write the radius-1 outputs and record -1
    radius = lambda r: {"mu0": {"mode": "sphere", "radius": r, "seed": 1}, "eta_grid": "0:1.5:5"}
    config = write_problem(tmp_path, **radius(-1))
    out = tmp_path / "out" / f"{name}.csv"
    assert run([name, "--config", str(config), *extra, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "input error: signal radius must be nonnegative, got -1.0\n"
    assert captured.out == "" and not out.parent.exists()
    # radius 0 is a pure-noise signal
    config = write_problem(tmp_path, **radius(0))
    assert run([name, "--config", str(config), *extra, "--out", str(out)]) == 0


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
        expected = theoretical_risk(RiskKind(row[1]), p)
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


@pytest.mark.parametrize("command", ["fpe", "risk"])
@pytest.mark.parametrize(
    "overrides, grid_flag",
    [({"eta_grid": [1.0, 0.5]}, []), ({"eta_grid": [0.5, 0.5]}, []), ({}, ["--eta-grid", "1:1:3"])],
)
def test_eta_grid_order_is_checked_before_any_solve(
    tmp_path, capsys, command, overrides, grid_flag
):
    if grid_flag:  # refused when the command line is parsed
        message = ("usage error: argument --eta-grid: eta grid must be strictly ascending; "
                   "eta grid has 1.0 after 1.0\n")
    else:
        a, b = overrides["eta_grid"]
        message = (f"input error: eta grid must be strictly ascending; 'eta_grid' has {b!r} "
                   f"after {a!r}\n")
    config = write_problem(tmp_path, **overrides)
    out = tmp_path / "never.csv"
    with mock.patch.object(riskengine, "solve_effective", side_effect=AssertionError("solved")):
        code = run([command, "--config", str(config), *grid_flag, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == message
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


@pytest.mark.parametrize("kinds", [",", " , ", "pred,pred", "pred,est,pred"])
def test_risk_refuses_an_empty_or_repeated_kind_list(tmp_path, capsys, kinds):
    config = write_problem(tmp_path, eta_grid="0:1:3")
    out = tmp_path / "risk.csv"
    with mock.patch.object(cli, "risk_curves", side_effect=AssertionError("solved")):
        code = run(["risk", "--config", str(config), "--kinds", kinds, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "usage error: argument --kinds: expected at least one risk kind and none twice, "
        f"got {kinds!r}\n"
    )
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
    diag = lq_gamma_diag(None, params)
    assert rows[0] == [2.0, lq_risk(2.0, diag)]

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
    # every data-side estimator, the fit at eta > 0 included, reads the
    # dataset's one eigendecomposition
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
    assert sorted(calls) == ["eigh"]


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


@pytest.mark.parametrize("shape", [[4294967296, 4294967296], [2097152, 2097152, 4194304]])
def test_array_payload_size_is_counted_without_wrapping(tmp_path, capsys, shape):
    data_path, _ = write_dataset(tmp_path)
    obj = json.loads(data_path.read_text())
    obj["x"].update(shape=shape, data="")
    data_path.write_text(json.dumps(obj))
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"input error: malformed 'x': array payload has 0 values, shape {tuple(shape)} "
        f"needs {2**64}\n"
    )
    assert captured.out == ""


def test_malformed_array_payload_is_an_input_error(tmp_path, capsys):
    data_path, _ = write_dataset(tmp_path)
    obj = json.loads(data_path.read_text())
    obj["x"]["shape"] = [8.9, 12]
    data_path.write_text(json.dumps(obj))
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 1
    assert "input error" in capsys.readouterr().err


ETA_BAND = "must be 0 or lie in [1e-60, 1e+60], got"


# the ids are the message fragments these cases matched while the flags were
# checked by the commands, kept so that the cases keep their names
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["tune", "--method", "gcv", "--grid", "0:1e308:3"],
                     f"--grid: eta grid {ETA_BAND} 5e+307", id="argv0---grid must be 0 or lie in"),
        pytest.param(["tune", "--method", "cv", "--grid", "0.5:1e61:2"],
                     f"--grid: eta grid {ETA_BAND} 1e+61", id="argv1---grid must be 0 or lie in"),
        pytest.param(["tune", "--method", "gcv", "--grid", "1:1:3"],
                     "--grid: eta grid must be strictly ascending; eta grid has 1.0 after 1.0",
                     id="argv2-eta grid must be strictly ascending"),
        pytest.param(["fit", "--eta", "1e308"], f"--eta: eta {ETA_BAND} 1e+308",
                     id="argv3---eta must be 0 or lie in"),
        pytest.param(["fit", "--eta", "inf"], f"--eta: eta {ETA_BAND} inf",
                     id="argv4---eta must be 0 or lie in"),
        pytest.param(["fit", "--eta", "nan"], f"--eta: eta {ETA_BAND} nan",
                     id="argv5---eta must be 0 or lie in"),
        pytest.param(["fit", "--eta", "1e-61"], f"--eta: eta {ETA_BAND} 1e-61",
                     id="argv6---eta must be 0 or lie in"),
        pytest.param(["fit", "--eta", "-0.5"], f"--eta: eta {ETA_BAND} -0.5",
                     id="argv7---eta must be 0 or lie in"),
        pytest.param(["ci", "--eta", "1e300"], f"--eta: eta {ETA_BAND} 1e+300",
                     id="argv8---eta must be 0 or lie in"),
    ],
)
def test_data_command_eta_out_of_band_is_an_input_error(tmp_path, capsys, argv, message):
    # each of these used to exit 0 with an inf, nan or zero-width answer; the
    # flag is refused when the command line is parsed
    data_path, _ = write_dataset(tmp_path)
    out = tmp_path / "never.csv"
    extra = [] if argv[0] == "fit" else ["--out", str(out)]
    assert run([argv[0], "--data", str(data_path), *argv[1:], *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--eta", "0.5"],
        ["ci", "--eta", "0.5"],
        ["tune", "--method", "gcv", "--grid", "0:1:3"],
        ["tune", "--method", "cv", "--grid", "0:1:3"],
    ],
)
def test_overflowed_gram_matrix_exits_2(tmp_path, capsys, argv):
    # finite entries near 1e200 overflow X X^T, on which eigh used to raise
    # a raw LinAlgError
    rng = np.random.default_rng(0)
    x = 1e200 * rng.standard_normal((20, 40))
    data = Dataset(x=x, y=rng.standard_normal(20), model=Isotropic(1.0, 40))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dataset_to_json(data)))
    out = tmp_path / "never.csv"
    extra = [] if argv[0] == "fit" else ["--out", str(out)]
    assert run([argv[0], "--data", str(path), *argv[1:], *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: Gram matrix X X^T / n is not finite (overflow)\n"
    assert not out.exists()


def test_rank_deficient_dual_gamma_hat_agrees_across_commands(tmp_path, capsys):
    # rank 6 of 10 rows: X X^T is singular, yet gamma_hat(0.5) exists, and
    # fit, ci and the gcv objective read it through the one formula
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 6)) @ rng.standard_normal((6, 30))
    data = Dataset(x=x, y=rng.standard_normal(10), model=Isotropic(1.0, 30))
    path = tmp_path / "rank6.json"
    path.write_text(json.dumps(dataset_to_json(data)))
    values = []
    assert run(["fit", "--data", str(path), "--eta", "0.5"]) == 0
    values.append(capsys.readouterr().out.split("gamma_hat=")[1].splitlines()[0])
    ci_out = tmp_path / "ci.csv"
    assert run(["ci", "--data", str(path), "--eta", "0.5", "--out", str(ci_out)]) == 0
    values.append(capsys.readouterr().out.split("gamma_hat=")[1].splitlines()[0])
    tune_out = tmp_path / "gcv.csv"
    argv = ["tune", "--data", str(path), "--method", "gcv", "--grid", "0.25:1:4",
            "--out", str(tune_out)]
    assert run(argv) == 0
    cells = dict(line.split(",") for line in tune_out.read_text().splitlines()[1:])
    values.append(cells["0.5"])
    assert values[0] == values[1] == values[2]
    assert math.isfinite(float(values[0])) and float(values[0]) > 0


@pytest.mark.filterwarnings("error")
def test_data_commands_stay_finite_at_the_eta_band_edges(tmp_path, capsys):
    data_path, _ = write_dataset(tmp_path)
    out = tmp_path / "out.csv"
    runs = [["fit", "--data", str(data_path), "--eta", eta] for eta in ("0", "1e-60", "1e60")]
    runs += [["ci", "--data", str(data_path), "--eta", eta, "--out", str(out)]
             for eta in ("0", "1e-60", "1e60")]
    runs += [["tune", "--data", str(data_path), "--method", method, "--k", "4",
              "--grid", "0:1e60:3", "--out", str(out)] for method in ("gcv", "cv")]
    for argv in runs:
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv
        for line in captured.out.splitlines():
            key, value = line.split("=", 1)
            if key != "method":
                assert math.isfinite(float(value)), (argv, line)
        if argv[0] != "fit":
            _, rows = read_csv(out)
            assert rows and all(
                cell is None or math.isfinite(cell) for row in rows for cell in row
            ), argv


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
    # equal columns on an m > n sample make X^T X singular: eta = 0 is
    # refused by regime, as in every command, and eta > 0 keeps each
    # held-out system invertible
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
    assert captured.err == "numerical error: eta = 0 requires m < n, got m=60, n=20\n"
    assert not out.exists()
    argv[argv.index("0:1.5:7")] = "0.25:1.5:6"
    assert run(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 6 and all(math.isfinite(row[1]) for row in rows)


@pytest.mark.parametrize("m, n", [(30, 60), (40, 40), (60, 30)])
def test_eta_zero_needs_m_below_n_in_every_command(tmp_path, capsys, m, n):
    # fit, ci, GCV and k-fold share one rule at eta = 0
    data_path, _ = write_dataset(tmp_path, m=m, n=n, seed=3)
    data = ["--data", str(data_path)]
    out = tmp_path / "out" / "o.csv"
    commands = {
        "fit": ["fit", *data, "--eta", "0"],
        "ci": ["ci", *data, "--eta", "0", "--out", str(out)],
        "gcv": ["tune", *data, "--method", "gcv", "--grid", "0:1.5:7", "--out", str(out)],
        "cv": ["tune", *data, "--method", "cv", "--grid", "0:1.5:7", "--out", str(out)],
    }
    for name, argv in commands.items():
        code = run(argv)
        captured = capsys.readouterr()
        if m < n:
            assert code == 0, (name, captured.err)
            continue
        assert code == 2, name
        assert captured.err == f"numerical error: eta = 0 requires m < n, got m={m}, n={n}\n"
        assert captured.out == "" and not out.parent.exists(), name


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
    # ||mu0||^2 overflows, so gamma^2 is inf; the solve must not pass it on.
    # ProblemConfig's band on ||mu0||^2 rejects this mu0 first (exit 1, see
    # test_malformed_problem_config_is_a_typed_error); lifted, the solver's
    # residual check still stops the run.
    config = write_problem(
        tmp_path,
        model={"kind": "explicit", "eigenvalues": [2, 1]},
        mu0=[1e200, 1e200],
        eta_grid="0:1:3",
    )
    out = tmp_path / "out.csv"
    with np.errstate(over="ignore"), mock.patch.object(errors, "SCALE_RANGE", (0.0, np.inf)):
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


def test_theory_csvs_do_not_move_with_the_blas_thread_count(tmp_path):
    # the spectral sums, signal norms and a sphere draw's normalization run
    # einsum's own loop, never BLAS, whose threaded dot splits a 10^5-term
    # sum and moves its last bit with the thread count
    rng = np.random.default_rng(5)
    n = 100_000
    lam = np.sort(np.exp(rng.uniform(np.log(0.05), np.log(20.0), n)))[::-1]
    config = write_problem(
        tmp_path,
        model={"kind": "explicit", "eigenvalues": encode_array(lam)},
        mu0={"mode": "sphere", "radius": 1.0, "seed": 1},
        eta_grid="0:1.5:7",
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        for command in ("fpe", "risk"):
            out = tmp_path / f"{command}_{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "ridgelab", command, "--config", str(config),
                 "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[command, threads] = out.read_bytes()
    for command in ("fpe", "risk"):
        assert outputs[command, "1"] == outputs[command, "2"], command


def _fresh_python(script, argv, tmp_path, **env):
    """python -c script argv in a fresh interpreter that imports this ridgelab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _fresh_cli(argv, tmp_path, prelude="", **env):
    """The ridgelab command line on argv in a fresh interpreter, after prelude."""
    script = f"{prelude}\nimport sys\nfrom ridgelab.cli import run\nsys.exit(run(sys.argv[1:]))"
    return _fresh_python(script, argv, tmp_path, **env)


_LOADED_SUBMODULES = """
import contextlib, io, json, sys
from ridgelab import cli

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special", "statistics") if m in sys.modules]

problem, data, fig1, fig2 = sys.argv[1:]
seen = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    for command, extra in (("fpe", []), ("risk", []), ("lq", ["--eta", "0.5"])):
        assert cli.run([command, "--config", problem, "--out", f"{command}.csv", *extra]) == 0
    seen["theory"] = loaded()
    assert cli.run(["fit", "--data", data, "--eta", "0.5"]) == 0
    for method in ("gcv", "cv"):
        assert cli.run(["tune", "--data", data, "--method", method, "--k", "2",
                        "--grid", "0.1:1:4", "--out", f"{method}.csv"]) == 0
    seen["fit_tune"] = loaded()
    assert cli.run(["ci", "--data", data, "--eta", "0.5", "--out", "ci.csv"]) == 0
    seen["ci"] = loaded()
    for figure, config in (("fig1", fig1), ("fig2", fig2)):
        assert cli.run(["sim", figure, "--config", config, "--out-dir", figure]) == 0
        seen[figure] = loaded()
print(json.dumps(seen))
"""


def test_commands_load_only_the_scipy_they_call(tmp_path):
    # a fresh interpreter, since this one has long loaded both submodules;
    # both sims draw t(10) designs and noise, and fig2 computes intervals;
    # statistics, for the normal quantile, loads with the first interval
    data, _ = write_dataset(tmp_path)
    t10 = {"model": {"kind": "spiked_uniform", "a": 1.99, "b": 0.01},
           "design_dist": "scaled_t10", "noise_dist": "scaled_t10",
           "eta_grid": [0.3, 0.6, 0.9], "reps": 2, "seed": 2, "threads": 1}
    fig1 = tmp_path / "fig1.json"
    fig1.write_text(json.dumps({"m": 10, "n": 20, **t10}))
    fig2 = tmp_path / "fig2.json"
    fig2.write_text(json.dumps({"m": 12, "phi_grid": [0.75], "k": 3, **t10}))
    proc = _fresh_python(
        _LOADED_SUBMODULES,
        [str(ROOT / "configs" / "problem.json"), str(data), str(fig1), str(fig2)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "theory": [], "fit_tune": [], "ci": ["statistics"],
        "fig1": ["statistics"], "fig2": ["statistics"],
    }


def test_fresh_sim_fig1_is_byte_identical_across_thread_counts(tmp_path):
    # criterion 13 runs in a process that has long imported every module;
    # here each interpreter starts cold and, at --threads 2, makes its
    # first t(10) draw in a rep-pool worker
    config = tmp_path / "fig1.json"
    config.write_text(json.dumps({
        "m": 20, "n": 40, "model": {"kind": "spiked_uniform", "a": 1.99, "b": 0.01},
        "eta_grid": "0:1.5:7", "reps": 4, "seed": 5,
    }))
    outputs = {}
    for threads in ("1", "2"):
        out_dir = tmp_path / f"out{threads}"
        proc = _fresh_cli(
            ["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir),
             "--threads", threads],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = [(out_dir / name).read_bytes()
                            for name in ("risk_curves.csv", "argmin.csv")]
    assert outputs["1"] == outputs["2"]


def test_sim_too_large_for_memory_is_an_input_error(tmp_path):
    # the 20000 x 40000 design needs 6.4 GB; the child's address space is
    # capped at 3 GiB, so the allocation fails before any page is touched
    config = tmp_path / "big.json"
    config.write_text(json.dumps({
        "m": 20_000, "n": 40_000, "model": {"kind": "isotropic", "scale": 1.0},
        "design_dist": "gaussian", "noise_dist": "gaussian", "eta_grid": [0.5, 1.0],
        "reps": 1, "seed": 1, "threads": 1,
    }))
    out_dir = tmp_path / "out"
    limit = 3 * 2**30
    proc = _fresh_cli(
        ["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)],
        tmp_path,
        prelude=f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))",
        OPENBLAS_NUM_THREADS="1",
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("input error: sim fig1 does not fit in memory ("), lines[0]
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"phi": "abc"}, "input error: malformed 'phi': expected a real number, got 'abc'\n"),
        (
            {"sigma_sq": None},
            "input error: malformed 'sigma_sq': expected a real number, got None\n",
        ),
        (
            {"mu0": {"mode": "sphere", "seed": "x"}},
            "input error: malformed 'seed' of mu0: expected an integer, got 'x'\n",
        ),
        (
            {"mu0": ["a", "b"]},
            "input error: malformed 'mu0': expected a list of real numbers, "
            "got an entry of type str\n",
        ),
        (
            {"eta_grid": ["a"]},
            "input error: malformed 'eta_grid': expected a list of real numbers, "
            "got an entry of type str\n",
        ),
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
        (
            {"mu0": {"mode": "sphere", "seed": 1.5}},
            "input error: malformed 'seed' of mu0: expected an integer, got 1.5\n",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": {**encode_array(np.ones(2)),
                                                           "data": "!!"}}},
            "input error: malformed 'eigenvalues' of explicit model: malformed 'data' of "
            "array payload: Only base64 data is allowed",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": [1.0] * 16},
             "mu0": {**encode_array(np.ones(16)), "shape": [15]}},
            "input error: malformed 'mu0': array payload has 16 values",
        ),
        ({"phi": 1e308}, "input error: 'phi' must lie in [1e-08, 1e+08], got 1e+308"),
        ({"phi": 1e-320}, "input error: 'phi' must lie in [1e-08, 1e+08], got 1e-320"),
        (
            {"eta_grid": "1e308:1e308:1"},
            "input error: 'eta_grid' must be 0 or lie in [1e-60, 1e+60], got 1e+308",
        ),
        (
            {"model": {"kind": "isotropic", "scale": 1.0, "n": 10**12}},
            "input error: malformed 'n' of isotropic model: expected at most 1e+08",
        ),
        (
            {"model": {"kind": "isotropic", "scale": 1.0, "n": 2}, "mu0": [1e200, 1e200]},
            "input error: squared norm of 'mu0' must lie in [0, 1e+60], got inf",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": [1e200, 1.0]}},
            "input error: eigenvalues of explicit model must lie in [1e-60, 1e+60], "
            "got 1e+200",
        ),
        (
            {"model": {"kind": "isotropic", "scale": 1e200, "n": 16}},
            "input error: 'scale' of isotropic model must lie in [1e-60, 1e+60], got 1e+200",
        ),
        (
            {"model": {"kind": "spiked_uniform", "a": 1e200, "b": 1.0, "n": 16}},
            "input error: 'a' of spiked_uniform model must lie in [1e-60, 1e+60], got 1e+200",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": [1e-200, 1e-201]}},
            "input error: eigenvalues of explicit model must lie in [1e-60, 1e+60], "
            "got 1e-200",
        ),
        # each of these used to run at the value float() or iteration made of it
        (
            {"sigma_sq": True},
            "input error: malformed 'sigma_sq': expected a real number, got True\n",
        ),
        (
            {"sigma_sq": "1.0"},
            "input error: malformed 'sigma_sq': expected a real number, got '1.0'\n",
        ),
        (
            {"model": {"kind": "spiked_uniform", "a": True, "b": 0.5, "n": 16}},
            "input error: malformed 'a' of spiked_uniform model: expected a real number, "
            "got True\n",
        ),
        (
            {"eta_grid": [0.1, True]},
            "input error: malformed 'eta_grid': expected a list of real numbers, "
            "got an entry of type bool\n",
        ),
        (
            {"model": {"kind": "explicit", "eigenvalues": [2.0, "1.5", 1.0]}},
            "input error: malformed 'eigenvalues' of explicit model: expected a list of real "
            "numbers, got an entry of type str\n",
        ),
        (
            {"eta_grid": {"0": 1}},
            "input error: malformed 'eta_grid': expected a list of real numbers, got {'0': 1}\n",
        ),
        (
            {"mu0": {"mode": "sphere", "radius": True}},
            "input error: malformed 'radius' of mu0: expected a real number, got True\n",
        ),
        ({"mu0": {"mode": 1}}, "input error: malformed 'mode' of mu0: expected one of "),
        # an int beyond the float range used to end in an OverflowError traceback
        ({"phi": 10**400}, "input error: malformed 'phi': int too large to convert to float\n"),
        (
            {"model": {"kind": "isotropic", "scale": 10**400, "n": 16}},
            "input error: malformed 'scale' of isotropic model: int too large to convert "
            "to float\n",
        ),
        (
            {"mu0": {"radius": 10**400}},
            "input error: malformed 'radius' of mu0: int too large to convert to float\n",
        ),
        (
            {"eta_grid": [0.5, 10**400]},
            "input error: malformed 'eta_grid': int too large to convert to float\n",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_malformed_problem_config_is_a_typed_error(tmp_path, capsys, overrides, message):
    config = write_problem(tmp_path, **overrides)
    out = tmp_path / "never.csv"
    for command, flags in (("fpe", ["--eta-grid", "0:1:3"]), ("risk", ["--eta-grid", "0:1:3"]),
                           ("lq", ["--eta", "0.5"])):
        code = run([command, "--config", str(config), *flags, "--out", str(out)])
        assert code == 1, command
        assert message in capsys.readouterr().err, command
        assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_lq_at_large_noise_writes_finite_cells(tmp_path):
    # sigma_sq = 1e60 puts diag(Gamma) near 1e60, whose 20th power overflows
    config = write_problem(tmp_path, sigma_sq=1e60)
    out = tmp_path / "lq.csv"
    argv = ["lq", "--config", str(config), "--eta", "0.5", "--q", "1,2,8,40"]
    assert run([*argv, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [row[0] for row in rows] == [1.0, 2.0, 8.0, 40.0]
    assert all(math.isfinite(row[1]) and row[1] > 0 for row in rows)


def test_non_finite_lq_cell_exits_2_with_no_output(tmp_path, capsys, monkeypatch):
    config = write_problem(tmp_path)
    out = tmp_path / "lq.csv"
    monkeypatch.setattr(cli, "lq_risk", lambda q, diag: math.inf if q > 2 else 1.0)
    code = run(["lq", "--config", str(config), "--eta", "0.5", "--q", "1,4",
                "--out", str(out)])
    assert code == 2
    assert "numerical error: lq.csv column 'risk' is not finite at q = 4.0" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("q", ["nan", "inf", "1e400", "0", "-1", "1,nan"])
def test_lq_q_must_be_a_positive_finite_real(tmp_path, capsys, q):
    out = tmp_path / "lq.csv"
    argv = ["lq", "--config", str(ROOT / "configs" / "problem.json"), "--eta", "0.5",
            "--q", q, "--out", str(out)]
    with mock.patch.object(cli, "solve_effective", side_effect=AssertionError("solved")):
        assert run(argv) == 1
    got = float(q.split(",")[-1])
    assert capsys.readouterr().err == f"usage error: argument --q: q must lie in (0, inf), got {got!r}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mc_reps", ["0", "100"])
def test_lq_at_a_tiny_q_exits_2_with_no_output(tmp_path, capsys, mc_reps):
    # (sum_j Gamma_jj^{q/2})^{1/q} at q = 1e-300 is past the float range
    out = tmp_path / "lq.csv"
    argv = ["lq", "--config", str(ROOT / "configs" / "problem.json"), "--eta", "0.5",
            "--q", "1e-300", "--mc-reps", mc_reps, "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "numerical error: lq.csv column 'risk' is not finite at q = 1e-300\n"
    )
    assert not out.exists()
    assert lq_risk(1e-300, np.array([1.0, 0.5])) == math.inf
    # one coordinate has no sum to blow up: the risk is sqrt(0.5) M_q, and
    # M_q tends to sqrt(2) exp(psi(1/2) / 2) as q -> 0
    limit = math.sqrt(0.5) * math.sqrt(2.0) * math.exp(float(mpmath.digamma(0.5)) / 2.0)
    assert lq_risk(1e-300, np.array([0.5])) == pytest.approx(limit, rel=1e-14)


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


def test_sim_fig1_pipeline_reproducible(tmp_path):
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


def test_sim_fig1_argmin_writes_grid_points(tmp_path):
    # argmin.csv used to add eta_star back to eta_hat - eta_star, which can
    # leave the grid: at eta_star = 0.3, 0.121875 was written as 0.12187500000000001
    config = write_fig1_config(
        tmp_path, sigma_sq=0.3, eta_grid="0:1.5:161", reps=1, argmin_reps=20, seed=3
    )
    out_dir = tmp_path / "out"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    grid = set(np.linspace(0.0, 1.5, 161).tolist())
    header, rows = read_csv(out_dir / "argmin.csv")
    assert header == ["rep", "kind", "eta_hat", "eta_star"] and len(rows) == 3 * 20
    assert [row for row in rows if row[2] not in grid or row[3] != 0.3] == []


def write_fig2_config(tmp_path):
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
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(obj))
    return path


def test_sim_fig2_pipeline(tmp_path):
    config = write_fig2_config(tmp_path)
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


def _run_sim_with_shape(tmp_path, capsys, command, shape):
    """Exit code and (stdout, stderr) of sim command on its test config with
    n / phi_grid replaced by shape; nothing may be written."""
    writer = write_fig1_config if command == "fig1" else write_fig2_config
    config = writer(tmp_path)
    obj = json.loads(config.read_text())
    obj.pop("n", None)
    obj.pop("phi_grid", None)
    config.write_text(json.dumps({**obj, **shape}))
    out_dir = tmp_path / "o"
    code = run(["sim", command, "--config", str(config), "--out-dir", str(out_dir)])
    assert not out_dir.exists()
    return code, tuple(capsys.readouterr())


# the runner alone checks the shape, before any draw
def test_sim_fig1_requires_fixed_n(tmp_path, capsys):
    assert _run_sim_with_shape(tmp_path, capsys, "fig1", {"phi_grid": [0.5]}) == (
        1, ("", "input error: risk experiment needs a fixed n\n")
    )


def test_sim_fig2_requires_phi_grid(tmp_path, capsys):
    assert _run_sim_with_shape(tmp_path, capsys, "fig2", {"n": 16}) == (
        1, ("", "input error: tuning experiment needs a phi grid\n")
    )


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
        ({"m": 10**12}, "'m'"),
        ({"n": 10**12}, "'n'"),
        ({"eta_grid": [0.5, math.nan]}, "'eta_grid'"),
        ({"eta_grid": [0.5, math.inf]}, "'eta_grid'"),
        ({"eta_grid": [0.5, 1e61]}, "'eta_grid'"),
        ({"eta_grid": "0:1e308:3"}, "'eta_grid'"),
        # a string or an object used to be iterated: "15" ran phi in {1.0, 5.0}
        ({"phi_grid": "15"}, "'phi_grid'"),
        ({"phi_grid": {"0.5": 1}}, "'phi_grid'"),
        ({"eta_grid": {"0.5": 1}}, "'eta_grid'"),
        ({"sigma_sq": True}, "'sigma_sq'"),
        ({"signal": {"radius": "1.0"}}, "'radius' of signal"),
        ({"design_dist": 5}, "'design_dist'"),
        ({"alpha": 10**400}, "'alpha'"),
        ({"reps": 10**12}, "'reps'"),
        # build_model sets n itself, so a model's own n was silently replaced
        (
            {"model": {"kind": "isotropic", "scale": 1.0, "n": 20}},
            "malformed 'model': a sim model takes its dimension from 'n' or 'phi_grid'",
        ),
        # 0 or less used to mean one worker per CPU; each worker is a thread
        ({"threads": 0}, "'threads' must lie in [1, 256], got 0"),
        ({"threads": -1}, "'threads' must lie in [1, 256], got -1"),
        ({"threads": 257}, "'threads' must lie in [1, 256], got 257"),
    ],
)
def test_malformed_sim_config_is_an_input_error(tmp_path, capsys, overrides, key):
    config = write_fig1_config(tmp_path, **overrides)
    out_dir = tmp_path / "o"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and key in err
    assert not out_dir.exists()


def negative_seed_argv(tmp_path, entry: str) -> tuple[list, str]:
    """argv that gives entry a seed of -1, and the message that refuses it."""
    out = str(tmp_path / "out")
    flag = "usage error: argument --seed: expected a non-negative integer, got -1\n"
    if entry == "sim":
        config = write_fig1_config(tmp_path, seed=-1)
        return (["sim", "fig1", "--config", str(config), "--out-dir", out],
                "input error: malformed 'seed': expected a non-negative integer, got -1\n")
    if entry == "mu0":
        config = write_problem(tmp_path, mu0={"mode": "sphere", "seed": -1}, eta_grid="0:1:3")
        return (["fpe", "--config", str(config), "--out", out + "/fpe.csv"],
                "input error: malformed 'seed' of mu0: expected a non-negative integer, got -1\n")
    if entry == "lq":
        return (["lq", "--config", str(write_problem(tmp_path)), "--eta", "0.5",
                 "--mc-reps", "100", "--seed", "-1", "--out", out + "/lq.csv"], flag)
    data, _ = write_dataset(tmp_path)
    return (["tune", "--data", str(data), "--method", "cv", "--grid", "0.1:1:4",
             "--seed", "-1", "--out", out + "/cv.csv"], flag)


@pytest.mark.parametrize("entry", ["sim", "mu0", "lq", "tune"])
def test_negative_seed_is_a_typed_error(tmp_path, capsys, entry):
    # each used to end in SeedSequence's raw ValueError and a traceback
    argv, message = negative_seed_argv(tmp_path, entry)
    assert run(argv) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


# command, flags with one bad value, and the usage error that refuses it;
# every input path names a file that does not exist
BAD_FLAGS = {
    "fit --eta": (["fit", "--eta", "nan"], f"argument --eta: eta {ETA_BAND} nan"),
    "ci --eta": (["ci", "--eta", "-1"], f"argument --eta: eta {ETA_BAND} -1.0"),
    "lq --eta": (["lq", "--eta", "1e61"], f"argument --eta: eta {ETA_BAND} 1e+61"),
    "fpe --eta-grid": (["fpe", "--eta-grid", "0:-1:3"],
                       "argument --eta-grid: grid start 0.0 exceeds end -1.0"),
    "risk --eta-grid": (["risk", "--eta-grid", "1e-61:1:3"],
                        f"argument --eta-grid: eta grid {ETA_BAND} 1e-61"),
    "tune --grid": (["tune", "--method", "gcv", "--grid", "0:1:x"],
                    "argument --grid: malformed grid spec '0:1:x': invalid literal for int() "
                    "with base 10: 'x'"),
    "ci --alpha": (["ci", "--eta", "0.5", "--alpha", "1.5"],
                   "argument --alpha: alpha must lie in (0, 1), got 1.5"),
    "lq --q": (["lq", "--eta", "0.5", "--q", "0.5,-2"],
               "argument --q: q must lie in (0, inf), got -2.0"),
    "risk --kinds": (["risk", "--kinds", "pred,mse"],
                     "argument --kinds: expected one of ('pred', 'est', 'ins', 'res'), got 'mse'"),
    "lq --mc-reps 50": (["lq", "--eta", "0.5", "--mc-reps", "50"],
                        "argument --mc-reps: reps must be 0 or lie in [100, 1e+08], got 50"),
    "lq --mc-reps 1e11": (["lq", "--eta", "0.5", "--mc-reps", "99999999999"],
                          "argument --mc-reps: reps must be 0 or lie in [100, 1e+08], "
                          "got 99999999999"),
    "tune --k": (["tune", "--method", "cv", "--grid", "0:1:3", "--k", "1"],
                 "argument --k: k must lie in [2, inf), got 1"),
    "tune --seed": (["tune", "--method", "cv", "--grid", "0:1:3", "--seed", "-1"],
                    "argument --seed: expected a non-negative integer, got -1"),
    "lq --seed": (["lq", "--eta", "0.5", "--seed", "x"],
                  "argument --seed: invalid literal for int() with base 10: 'x'"),
    "sim --threads": (["sim", "fig1", "--threads", "1000000000"],
                      "argument --threads: expected at most 1e+08, got 1000000000"),
    **{f"sim --threads {t}": (["sim", "fig1", "--threads", t],
                              f"argument --threads: threads must lie in [1, 256], got {t}")
       for t in ("0", "-1", "257")},
}


@pytest.mark.parametrize("case", BAD_FLAGS)
def test_bad_flag_is_refused_before_any_file_is_read(tmp_path, capsys, case):
    # the missing input file would be a usage error of its own, so the flag's
    # message shows that the flag was refused when the command line was parsed
    argv, message = BAD_FLAGS[case]
    out = tmp_path / "out"
    nowhere = str(tmp_path / "nowhere.json")
    source = ["--data", nowhere] if argv[0] in ("fit", "ci", "tune") else ["--config", nowhere]
    target = {"fit": [], "sim": ["--out-dir", str(out)]}.get(argv[0], ["--out", str(out / "o.csv")])
    assert run([*argv, *source, *target]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry", ["problem", "sim", "--eta-grid", "--grid"])
def test_grid_count_is_bounded_before_allocation(tmp_path, capsys, entry):
    # 10^12 points used to end in numpy's MemoryError; the count is refused
    # before linspace allocates anything
    spec = "0:1:1000000000000"
    out = str(tmp_path / "out")
    if entry == "sim":
        config = write_fig1_config(tmp_path, eta_grid=spec)
        argv = ["sim", "fig1", "--config", str(config), "--out-dir", out]
    elif entry == "--grid":
        argv = ["tune", "--data", str(write_dataset(tmp_path)[0]), "--method", "gcv",
                "--grid", spec, "--out", out + "/t.csv"]
    else:
        config = write_problem(tmp_path, **({"eta_grid": spec} if entry == "problem" else {}))
        flags = ["--eta-grid", spec] if entry == "--eta-grid" else []
        argv = ["fpe", "--config", str(config), *flags, "--out", out + "/f.csv"]
    assert run(argv) == 1
    refused = f"malformed grid spec {spec!r}: expected at most 1e+08, got 1000000000000\n"
    in_config = entry in ("problem", "sim")
    prefix = "input error: malformed 'eta_grid': " if in_config else f"usage error: argument {entry}: "
    assert capsys.readouterr().err == prefix + refused
    assert not (tmp_path / "out").exists()


# One out-of-band value per field, and the commands whose inputs carry that
# field. phi of fig1, fit, ci and tune is a ratio of sizes of at most 10^8,
# so it cannot leave its band; datasets carry no sigma_sq and sim configs no
# mu0 array (their signal is a radius).
OUT_OF_BAND = {
    "isotropic scale": (
        {"model": lambda n: {"kind": "isotropic", "scale": 1e-300, "n": n}},
        "'scale' of isotropic model must lie in [1e-60, 1e+60], got 1e-300",
        ("fpe", "fig1", "fig2", "fit", "ci", "tune"),
    ),
    "spiked a": (
        {"model": lambda n: {"kind": "spiked_uniform", "a": 1e200, "b": 1.0, "n": n}},
        "'a' of spiked_uniform model must lie in [1e-60, 1e+60], got 1e+200",
        ("fpe", "fig1", "fig2", "fit", "ci", "tune"),
    ),
    "spiked b": (
        {"model": lambda n: {"kind": "spiked_uniform", "a": 1.0, "b": 1e200, "n": n}},
        "'b' of spiked_uniform model must be 0 or lie in [1e-60, 1e+60], got 1e+200",
        ("fpe", "fig1", "fig2", "fit", "ci", "tune"),
    ),
    "explicit eigenvalues": (
        {"model": lambda n: {"kind": "explicit", "eigenvalues": [1e-200] * n}},
        "eigenvalues of explicit model must lie in [1e-60, 1e+60], got 1e-200",
        ("fpe", "fig1", "fig2", "fit", "ci", "tune"),
    ),
    "sigma_sq": (
        {"sigma_sq": lambda n: 1e300},
        "'sigma_sq' must lie in [0, 1e+60], got 1e+300",
        ("fpe", "fig1", "fig2"),
    ),
    "phi": (
        {"phi": lambda n: 1e300, "phi_grid": lambda n: [1e300]},
        "must lie in [1e-08, 1e+08], got 1e+300",
        ("fpe", "fig2"),
    ),
    "mu0": (
        {"mu0": lambda n: [1e200] * n},
        "squared norm of 'mu0' must lie in [0, 1e+60], got inf",
        ("fpe", "fit", "ci", "tune"),
    ),
    "signal radius": (
        {"signal": lambda n: {"mode": "sphere", "radius": 1e300}},
        "squared norm of 'signal' must lie in [0, 1e+60], got inf",
        ("fig1", "fig2"),
    ),
}


def out_of_band_argv(tmp_path, command, fields) -> list:
    """argv running command on inputs with fields set (field -> value(n))."""
    out = str(tmp_path / "out" / "never.csv")
    if command == "fpe":
        obj = json.loads(write_problem(tmp_path).read_text())
        obj.update({key: value(16) for key, value in fields.items() if key in obj})
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        return ["fpe", "--config", str(path), "--eta-grid", "0:1:3", "--out", out]
    if command in ("fig1", "fig2"):
        writer, n = (write_fig1_config, 20) if command == "fig1" else (write_fig2_config, 16)
        obj = json.loads(writer(tmp_path).read_text())
        keys = {"model", "sigma_sq", "signal"} | ({"phi_grid"} if command == "fig2" else set())
        obj.update({key: value(n) for key, value in fields.items() if key in keys})
        obj["model"].pop("n", None)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(obj))
        return ["sim", command, "--config", str(path), "--out-dir", str(tmp_path / "out")]
    data_path, _ = write_dataset(tmp_path, m=8, n=12)
    obj = json.loads(data_path.read_text())
    if "model" in fields:
        obj["model"] = fields["model"](12)
    if "mu0" in fields:
        obj["mu0"] = encode_array(np.array(fields["mu0"](12)))
        del obj["xi"]
    data_path.write_text(json.dumps(obj))
    tail = {
        "fit": ["--eta", "0.5"],
        "ci": ["--eta", "0.5", "--out", out],
        "tune": ["--method", "gcv", "--grid", "0.1:1:4", "--out", out],
    }[command]
    return [command, "--data", str(data_path), *tail]


@pytest.mark.parametrize(
    "field, command",
    [(field, command) for field, (_, _, commands) in OUT_OF_BAND.items()
     for command in commands],
)
@pytest.mark.filterwarnings("error")
def test_out_of_band_field_is_refused_by_every_command(tmp_path, capsys, field, command):
    # the model, ProblemConfig, ExperimentConfig and Dataset constructors hold
    # each field to its band, so every command refuses it with fpe's message
    # before it computes: no solve, no replication, no Gram matrix
    fields, message, _ = OUT_OF_BAND[field]
    argv = out_of_band_argv(tmp_path, command, fields)
    computed = AssertionError("computed")
    with mock.patch.object(cli, "solve_grid", side_effect=computed), \
            mock.patch.object(simlab, "_map_reps", side_effect=computed), \
            mock.patch.object(regress, "GramSweep", side_effect=computed):
        assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.err.endswith(message + "\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# Extreme finite magnitudes, both signs, and the edges of the bands in
# errors.py. Sizes stay fixed and tiny: the MAX_DIM cap on them has its own
# tests (an "n" of 10**12 above).
EXTREME = st.one_of(
    st.sampled_from([0.0, 1e-60, 1e60, 1e-8, 1e8]),
    st.builds(
        lambda sign, value: sign * value,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1e-320, max_value=1e308, allow_subnormal=True),
    ),
)
PROBLEM_FIELDS = {
    "phi": lambda obj, v: obj.update(phi=v),
    "eta": lambda obj, v: obj.update(eta=v),
    "sigma_sq": lambda obj, v: obj.update(sigma_sq=v),
    "eta_grid": lambda obj, v: obj.update(eta_grid=[v]),
    "scale": lambda obj, v: obj.update(model={"kind": "isotropic", "scale": v, "n": 4}),
    "a": lambda obj, v: obj.update(model={"kind": "spiked_uniform", "a": v, "b": 0.5, "n": 4}),
    "b": lambda obj, v: obj.update(model={"kind": "spiked_uniform", "a": 1.0, "b": v, "n": 4}),
    "eigenvalues": lambda obj, v: obj.update(model={"kind": "explicit", "eigenvalues": [v] * 4}),
    "mu0 radius": lambda obj, v: obj.update(mu0={"mode": "sphere", "radius": v, "seed": 1}),
    "mu0 entry": lambda obj, v: obj.update(mu0=[v, 0.5, 0.5, 0.5]),
}
SIM_FIELDS = {
    "sigma_sq": lambda obj, v: obj.update(sigma_sq=v),
    "radius": lambda obj, v: obj.update(signal={"mode": "sphere", "radius": v}),
    "alpha": lambda obj, v: obj.update(alpha=v),
    "eta_grid": lambda obj, v: obj.update(eta_grid=[v]),
    "scale": lambda obj, v: obj.update(model={"kind": "isotropic", "scale": v}),
    "a": lambda obj, v: obj.update(model={"kind": "spiked_uniform", "a": v, "b": 0.5}),
    "b": lambda obj, v: obj.update(model={"kind": "spiked_uniform", "a": 1.0, "b": v}),
    "eigenvalues": lambda obj, v: obj.update(model={"kind": "explicit", "eigenvalues": [v] * 8}),
}


def run_fuzzed(directory: Path, argv: list) -> tuple[int, str]:
    """run(argv) exits 0, 1 or 2 with no escaping exception; on 0 every CSV
    cell it wrote is finite, on 1 or 2 it wrote nothing. Returns the exit
    code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    out = directory / "out"
    if code != 0:
        assert not out.exists(), argv
        return code, err.getvalue()
    for csv in out.glob("*.csv"):
        _, rows = read_csv(csv)
        cells = [cell for row in rows for cell in row if isinstance(cell, float)]
        assert all(math.isfinite(cell) for cell in cells), (argv, csv.name)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(sorted(PROBLEM_FIELDS)), value=EXTREME)
@pytest.mark.filterwarnings("error")
def test_theory_commands_at_extreme_config_values(field, value):
    base = {
        "phi": 0.5, "sigma_sq": 1.0, "model": {"kind": "isotropic", "scale": 1.0, "n": 4},
        "mu0": {"mode": "sphere", "radius": 1.0, "seed": 1}, "eta_grid": [0.0, 0.5, 1.0],
    }
    PROBLEM_FIELDS[field](base, value)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = directory / "problem.json"
        config.write_text(json.dumps(base))
        for command, flags in (("fpe", []), ("risk", []),
                               ("lq", ["--eta", "0.5", "--q", "0.5,2,40"])):
            shutil.rmtree(directory / "out", ignore_errors=True)
            run_fuzzed(directory, [command, "--config", str(config), *flags,
                                   "--out", str(directory / "out" / "o.csv")])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(sorted(SIM_FIELDS)), value=EXTREME)
@pytest.mark.filterwarnings("error")
def test_sim_fig1_at_extreme_config_values(field, value):
    base = {
        "m": 4, "n": 8, "model": {"kind": "isotropic", "scale": 1.0},
        "design_dist": "gaussian", "noise_dist": "gaussian", "eta_grid": [0.0, 0.5, 1.0],
        "reps": 2, "seed": 1, "threads": 1,
    }
    SIM_FIELDS[field](base, value)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = directory / "fig1.json"
        config.write_text(json.dumps(base))
        run_fuzzed(directory, ["sim", "fig1", "--config", str(config),
                               "--out-dir", str(directory / "out")])


# One JSON value of each type, drawn for every key of every config object.
# "other string" avoids every choice and the a:b:count form of a grid.
JSON_TYPES = {
    "bool": st.booleans(),
    "numeric string": st.floats(allow_nan=False).map(repr),
    "other string": st.text(alphabet="xyz _", max_size=4),
    "null": st.none(),
    "list": st.lists(st.one_of(st.booleans(), st.text(max_size=2)), min_size=1, max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    "huge int": st.integers(min_value=2**1024, max_value=10**400),
}
PROBLEM_BASE = {
    "phi": 0.5, "sigma_sq": 1.0, "model": {"kind": "isotropic", "scale": 1.0, "n": 4},
    "mu0": {"mode": "sphere", "radius": 1.0, "seed": 1}, "eta_grid": [0.0, 0.5, 1.0],
}
MODEL_BASES = {
    "isotropic": {"kind": "isotropic", "scale": 1.0, "n": 4},
    "spiked_uniform": {"kind": "spiked_uniform", "a": 1.5, "b": 0.5, "n": 4},
    "explicit": {"kind": "explicit", "eigenvalues": [2.0, 1.5, 1.0, 0.5], "n": 4,
                 "basis": np.eye(4).tolist()},
}
SIM_BASE = {
    "m": 4, "n": 8, "model": {"kind": "isotropic", "scale": 1.0}, "design_dist": "gaussian",
    "noise_dist": "gaussian", "eta_grid": [0.5, 1.0], "reps": 2, "seed": 1, "threads": 1,
}
# where -> (base config, command); fig2's base sweeps phi instead of fixing n
TYPED_BASES = {
    "problem": (PROBLEM_BASE, "fpe"),
    **{kind: ({**PROBLEM_BASE, "model": model}, "fpe") for kind, model in MODEL_BASES.items()},
    "fig1": (SIM_BASE, "fig1"),
    "fig2": ({**{k: v for k, v in SIM_BASE.items() if k != "n"}, "phi_grid": [0.5], "k": 2},
             "fig2"),
}
# (where, path to the key) -> (a valid value, its JSON type); "absent" marks
# a key whose null means absent, "object" one that holds an object
TYPED_KEYS = {
    ("problem", ("phi",)): (0.5, "real"),
    ("problem", ("eta",)): (0.5, "real"),
    ("problem", ("sigma_sq",)): (1.0, "real"),
    ("problem", ("model",)): (MODEL_BASES["isotropic"], "object"),
    ("problem", ("mu0",)): ({"seed": 2}, "object"),
    ("problem", ("eta_grid",)): ("0:1:3", "absent"),
    ("problem", ("mu0", "mode")): ("ball_radial", "choice"),
    ("problem", ("mu0", "radius")): (2.0, "real"),
    ("problem", ("mu0", "seed")): (5, "seed"),
    **{(kind, ("model", key)): (MODEL_BASES[kind][key], jtype)
       for kind, keys in (("isotropic", {"kind": "choice", "scale": "real", "n": "integer"}),
                          ("spiked_uniform", {"kind": "choice", "a": "real", "b": "real",
                                              "n": "integer"}),
                          ("explicit", {"kind": "choice", "eigenvalues": "array",
                                        "basis": "absent", "n": "absent"}))
       for key, jtype in keys.items()},
    ("fig1", ("m",)): (4, "integer"),
    ("fig1", ("n",)): (8, "absent"),
    ("fig2", ("phi_grid",)): ([0.5], "absent"),
    ("fig1", ("model",)): ({"kind": "spiked_uniform", "a": 1.5, "b": 0.5}, "object"),
    ("fig1", ("eta_grid",)): ("0.5:1:2", "grid"),
    ("fig1", ("design_dist",)): ("scaled_t10", "choice"),
    ("fig1", ("noise_dist",)): ("scaled_t10", "choice"),
    ("fig1", ("sigma_sq",)): (0.5, "real"),
    ("fig1", ("reps",)): (3, "integer"),
    ("fig1", ("argmin_reps",)): (2, "absent"),
    ("fig2", ("k",)): (2, "integer"),
    ("fig2", ("alpha",)): (0.1, "real"),
    ("fig1", ("seed",)): (7, "seed"),
    ("fig1", ("redraw_signal",)): (True, "boolean"),
    ("fig1", ("threads",)): (2, "integer"),
    ("fig1", ("signal",)): ({"mode": "ball_radial"}, "object"),
    ("fig1", ("signal", "mode")): ("ball_radial", "choice"),
    ("fig1", ("signal", "radius")): (2.0, "real"),
}


ABSENT = object()


def typed_run(directory: Path, where: str, path: tuple, value) -> tuple[int, str]:
    """run_fuzzed on where's base config with the key at path set to value,
    or removed when value is ABSENT."""
    base, command = TYPED_BASES[where]
    config = json.loads(json.dumps(base))
    owner = config
    for key in path[:-1]:
        owner = owner.setdefault(key, {})
    if value is ABSENT:
        owner.pop(path[-1], None)
    else:
        owner[path[-1]] = value
    (directory / "c.json").write_text(json.dumps(config))
    shutil.rmtree(directory / "out", ignore_errors=True)
    out = ["--out-dir", str(directory / "out")] if command in SIM_OUTPUTS else \
        ["--out", str(directory / "out" / "o.csv")]
    argv = ["sim", command] if command in SIM_OUTPUTS else [command]
    return run_fuzzed(directory, [*argv, "--config", str(directory / "c.json"), *out])


@pytest.mark.parametrize("where, path", sorted(TYPED_KEYS),
                         ids=[f"{where}:{'.'.join(path)}" for where, path in sorted(TYPED_KEYS)])
@settings(max_examples=1, deadline=None, derandomize=True, database=None)
@given(values=st.fixed_dictionaries(JSON_TYPES))
@pytest.mark.filterwarnings("error")
def test_every_config_key_takes_only_its_json_type(where, path, values):
    # a value of another JSON type is refused naming its key and writes
    # nothing; a valid value runs
    valid, jtype = TYPED_KEYS[where, path]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert typed_run(directory, where, path, valid)[0] == 0
        for name, value in values.items():
            if name == "object" and jtype == "object":
                continue  # the object's own keys are drawn as keys of their own
            code, err = typed_run(directory, where, path, value)
            if (name, jtype) in (("bool", "boolean"), ("huge int", "seed")):
                assert code == 0, (name, value, err)
            elif name == "null" and jtype == "absent":
                assert (code, err) == typed_run(directory, where, path, ABSENT), name
            else:
                assert code == 1 and f"malformed '{path[-1]}'" in err, (name, value, err)


# Each file-writing command and the compute its handler runs; the outputs
# go through cli._emit, which checks, writes and prints them.
ONE_PATH = {
    "fpe": "solve_grid", "risk": "risk_curves", "lq": "solve_effective",
    "tune": "gcv_select", "ci": "ridgeless_fit",
    "fig1": "run_risk_experiment", "fig2": "run_tuning_experiment",
}
SIM_OUTPUTS = {"fig1": ["argmin.csv", "risk_curves.csv"], "fig2": ["coverage.csv", "tuning.csv"]}


def one_path_argv(tmp_path, command, out) -> list:
    """argv of command on a small input, writing to out: the --out file, or
    the --out-dir of a sim experiment."""
    if command in SIM_OUTPUTS:
        config = (write_fig1_config if command == "fig1" else write_fig2_config)(tmp_path)
        return ["sim", command, "--config", str(config), "--out-dir", str(out)]
    if command in ("tune", "ci"):
        data, _ = write_dataset(tmp_path)
        flags = ["--method", "gcv", "--grid", "0:1:3"] if command == "tune" else ["--eta", "0.5"]
        return [command, "--data", str(data), *flags, "--out", str(out)]
    config = write_problem(tmp_path, eta_grid="0:1:3")
    flags = ["--eta", "0.5"] if command == "lq" else []
    return [command, "--config", str(config), *flags, "--out", str(out)]


@pytest.mark.parametrize("command", ONE_PATH)
def test_outputs_go_into_a_missing_nested_directory(tmp_path, command):
    nested = tmp_path / "a" / "b"
    out = nested / "out" if command in SIM_OUTPUTS else nested / f"{command}.csv"
    assert run(one_path_argv(tmp_path, command, out)) == 0
    out_dir = out if command in SIM_OUTPUTS else nested
    outputs = SIM_OUTPUTS.get(command, [out.name])
    assert json.loads((out_dir / "run_meta.json").read_text())["outputs"] == outputs
    assert sorted(os.listdir(out_dir)) == sorted(outputs + ["run_meta.json"])


@pytest.mark.parametrize("command", ONE_PATH)
def test_bad_output_location_is_a_usage_error_before_any_compute(
    tmp_path, capsys, monkeypatch, command
):
    # an existing directory as --out, or an existing file as --out-dir
    monkeypatch.setattr(cli, ONE_PATH[command], mock.Mock(side_effect=AssertionError))
    taken = tmp_path / "taken"
    if command in SIM_OUTPUTS:
        taken.write_text("kept\n")
    else:
        taken.mkdir()
    assert run(one_path_argv(tmp_path, command, taken)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --out") and "Traceback" not in err
    if command in SIM_OUTPUTS:
        assert taken.read_text() == "kept\n"
    else:
        assert not any(taken.iterdir())


@pytest.mark.parametrize("command", ["fpe", "fig1"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, command):
    # a path through a file fails only when written, after the compute
    blocker = tmp_path / "file.txt"
    blocker.write_text("kept\n")
    out = blocker / ("out" if command == "fig1" else "fpe.csv")
    assert run(one_path_argv(tmp_path, command, out)) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {blocker}")
    assert blocker.read_text() == "kept\n"


def test_non_finite_fpe_cell_exits_2_with_no_output(tmp_path, capsys, monkeypatch):
    solve_grid = cli.solve_grid

    def broken(*args, **kwargs):
        params = solve_grid(*args, **kwargs)
        tau_prime = params.tau_prime.copy()
        tau_prime[1] = math.nan
        return dataclasses.replace(params, tau_prime=tau_prime)

    monkeypatch.setattr(cli, "solve_grid", broken)
    out = tmp_path / "new" / "fpe.csv"
    assert run(one_path_argv(tmp_path, "fpe", out)) == 2
    assert capsys.readouterr().err == (
        "numerical error: fpe.csv column 'tau_prime' is not finite at eta = 0.5\n"
    )
    assert not out.parent.exists()


def test_non_finite_fig1_cell_exits_2_with_no_output(tmp_path, capsys, monkeypatch):
    # both tables are checked before the first is written
    risk = cli.run_risk_experiment

    def broken(*args, **kwargs):
        summary = risk(*args, **kwargs)
        emp_mean = {kind: col.copy() for kind, col in summary.emp_mean.items()}
        emp_mean["est"][2] = math.inf
        return dataclasses.replace(summary, emp_mean=emp_mean)

    monkeypatch.setattr(cli, "run_risk_experiment", broken)
    out_dir = tmp_path / "fig1"
    assert run(one_path_argv(tmp_path, "fig1", out_dir)) == 2
    assert capsys.readouterr().err == (
        "numerical error: risk_curves.csv column 'emp_mean' is not finite at eta = 1.0\n"
    )
    assert not out_dir.exists()


def test_non_finite_report_value_exits_2_with_nothing_printed(tmp_path, capsys, monkeypatch):
    data_path, _ = write_dataset(tmp_path)
    monkeypatch.setattr(cli, "df_hat", lambda data, eta: math.nan)
    assert run(["fit", "--data", str(data_path), "--eta", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: reported df is not finite\n"


def readme_theory_commands() -> list:
    """The fpe, risk and lq commands of the README's "Shipped configs"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Shipped configs", 1)[1].split("\n### ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["ridgelab"] and argv[1] in ("fpe", "risk", "lq"):
                commands.append(argv[1:])
    return commands


def test_readme_theory_commands_run_in_a_fresh_directory(tmp_path, monkeypatch):
    commands = readme_theory_commands()
    assert [argv[0] for argv in commands] == ["fpe", "risk", "lq"]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        assert out.parent == Path("out") and out.is_file()
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["rerun_argv"] == commands[-1]


def readme_usage_flags() -> dict:
    """{command: its --flags} from the README's "Command line" usage block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```text\n(.*?)```", text, re.S).group(1)
    flags, command = {}, None
    for line in block.splitlines():
        words = line.split()
        if words[0] == "ridgelab":
            command = " ".join(words[1:3] if words[1] == "sim" else words[1:2])
            flags[command] = set()
        flags[command].update(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def parser_flags(parser) -> dict:
    """{command: its option strings but --help} of a parser's subcommands."""
    out = {}
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            if sub._subparsers is not None:
                out.update({f"{name} {k}": v for k, v in parser_flags(sub).items()})
                continue
            out[name] = {
                option for act in sub._actions for option in act.option_strings
            } - {"-h", "--help"}
    return out


def test_readme_usage_block_lists_every_flag_of_the_parser(monkeypatch):
    # a removed flag lingering in the docs, or one left out of them, fails here
    assert readme_usage_flags() == parser_flags(cli._build_parser())
    # and every flag cast in _CASTS is the type of some flag
    named = []
    flag = cli._flag
    monkeypatch.setattr(cli, "_flag", lambda name: named.append(name) or flag(name))
    cli._build_parser()
    assert set(named) == set(cli._CASTS)
