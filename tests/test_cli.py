"""End-to-end CLI checks: schemas, exit codes, reproducible pipelines."""

import json

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
    sample_signal,
    solve_effective,
    tau_hat,
    theoretical_risk,
)
from ridgelab.cli import run
from ridgelab.dataio import dataset_to_json, encode_array, read_csv
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
        expected = theoretical_risk(
            RiskKind(row[1]), p, base.model, base.mu0, 1.0, 0.5
        )
        assert row[2] == expected
    # the residual risk has no eta-derivative column entry
    assert rows[1][4] is None and rows[0][4] is not None


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
    ],
)
def test_malformed_sim_config_is_an_input_error(tmp_path, capsys, overrides, key):
    config = write_fig1_config(tmp_path, **overrides)
    out_dir = tmp_path / "o"
    assert run(["sim", "fig1", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and key in err
    assert not out_dir.exists()
