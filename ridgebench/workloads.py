"""The benchmark's workloads: generated inputs, cli commands, output checks.

Every input is generated here from the workload seed; ridgelab receives
only the files written by ``generate``. Problem shapes are fixed. A
"pass" is one run of ``commands()``; the child process times passes and
calls ``check`` on each one.
"""

from __future__ import annotations

import base64
import json
import math
import os
from typing import NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "theory_grid_explicit.json")
# the seed the committed theory reference was computed at (README.md
# names a second, held-out seed)
DEFAULT_SEED = 1
SPIKE = {"kind": "spiked_uniform", "a": 1.99, "b": 0.01}


class Outcome(NamedTuple):
    """One cli.run call: exit code, captured streams and the replications
    (attempted, skipped) per experiment call it made."""

    argv: list
    rc: int
    stdout: str
    stderr: str
    reps: list


def read_csv(path: str) -> tuple[list[str], list[list]]:
    """Header and rows of a ridgelab CSV; numeric cells become floats.

    Parsed here, not by ridgelab.dataio, so the checks do not rely on the
    code they check."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    rows = []
    for line in lines[1:]:
        cells = []
        for tok in line.split(","):
            try:
                cells.append(float(tok) if tok else None)
            except ValueError:
                cells.append(tok)
        rows.append(cells)
    return lines[0].split(","), rows


def csv_problems(path: str, columns: list[str], n_rows: int) -> list[str]:
    """Header, row count and finiteness of every numeric cell."""
    if not os.path.isfile(path):
        return [f"{os.path.basename(path)} was not written"]
    header, rows = read_csv(path)
    name = os.path.basename(path)
    problems = []
    if header != columns:
        problems.append(f"{name}: header {header} != {columns}")
    if len(rows) != n_rows:
        problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
    bad = [c for r in rows for c in r if isinstance(c, float) and not math.isfinite(c)]
    if bad:
        problems.append(f"{name}: {len(bad)} non-finite values")
    return problems


def _exit_problems(outcome: Outcome) -> list[str]:
    if outcome.rc == 0:
        return []
    return [f"{' '.join(outcome.argv[:2])} exited {outcome.rc}: {outcome.stderr.strip()[-300:]}"]


def _encode(arr: np.ndarray) -> dict:
    # ridgelab's dataset format: little-endian float64, column-major, base64
    arr = np.asarray(arr, dtype="<f8")
    return {
        "dtype": "float64",
        "order": "F",
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes(order="F")).decode("ascii"),
    }


class Workload:
    name = ""
    unit = ""  # what work_per_s counts
    setup_kind = ""  # how setup_s loads the input: experiment, problem, dataset
    input_file = ""
    blas_parallel = False  # BLAS runs 2 threads (else 1)

    def __init__(self, work: str, seed: int, nproc: int):
        self.work = work
        self.seed = seed
        # rep workers times BLAS threads stays within the cores there are
        self.workers = min(2, nproc)
        self.blas_threads = self.workers if self.blas_parallel else 1

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def generate(self) -> None:
        raise NotImplementedError

    def warmup(self, run) -> list[str]:
        """Untimed commands before the first pass; returns problems."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> list[list[str]]:
        """Problems found, one list per command of the pass."""
        raise NotImplementedError

    def work_done(self, outcomes: list[Outcome]) -> int:
        raise NotImplementedError


class _MonteCarlo(Workload):
    """A `sim` pipeline. Timed passes run one rep worker; an untimed
    reference run uses two, and their CSVs must match byte for byte.

    Two-worker wall times are not timed: on a two-core machine shared
    with other load they swing with the second core's availability (one
    to over two times the single-core figure from run to run)."""

    unit = "reps"
    setup_kind = "experiment"
    input_file = "config.json"
    experiment = ""
    outputs: dict = {}  # csv name -> header
    timed_threads = 1

    def __init__(self, work, seed, nproc):
        super().__init__(work, seed, nproc)
        self.reference_threads = self.workers

    def config(self) -> dict:
        raise NotImplementedError

    def expected_rows(self, csv: str, reps: list) -> int:
        raise NotImplementedError

    def generate(self):
        with open(self.path(self.input_file), "w") as fh:
            json.dump(self.config(), fh)

    def _argv(self, out_dir: str, threads: int) -> list[str]:
        return ["sim", self.experiment, "--config", self.path(self.input_file),
                "--out-dir", out_dir, "--threads", str(threads)]

    def _dir_problems(self, outcome: Outcome, out_dir: str) -> list[str]:
        problems = _exit_problems(outcome)
        if not problems:
            for csv, header in self.outputs.items():
                rows = self.expected_rows(csv, outcome.reps)
                problems += csv_problems(os.path.join(out_dir, csv), header, rows)
        return problems

    def warmup(self, run):
        ref_dir = self.path("reference")
        outcome = run(self._argv(ref_dir, self.reference_threads))
        problems = self._dir_problems(outcome, ref_dir)
        self.reference = {}
        if not problems:
            for csv in self.outputs:
                with open(os.path.join(ref_dir, csv), "rb") as fh:
                    self.reference[csv] = fh.read()
        return problems

    def commands(self):
        return [self._argv(self.path("out"), self.timed_threads)]

    def check(self, outcomes):
        (outcome,) = outcomes
        problems = self._dir_problems(outcome, self.path("out"))
        for csv, ref in ({} if problems else self.reference).items():
            with open(os.path.join(self.path("out"), csv), "rb") as fh:
                if fh.read() != ref:
                    problems.append(
                        f"{csv} at --threads {self.timed_threads} differs from "
                        f"--threads {self.reference_threads}"
                    )
        return [problems]

    def work_done(self, outcomes):
        return sum(attempted for o in outcomes for _, attempted, _ in o.reps)


class McRiskT10(_MonteCarlo):
    """sim fig1 at the shipped shape with t(10) design and noise."""

    name = "mc_risk_t10"
    experiment = "fig1"
    reps = 4
    outputs = {
        "risk_curves.csv": ["eta", "kind", "emp_mean", "emp_sd", "theoretical", "rmt"],
        "argmin.csv": ["rep", "kind", "eta_hat", "eta_star"],
    }

    def config(self):
        return {
            "m": 100, "n": 200, "model": SPIKE,
            "design_dist": "scaled_t10", "noise_dist": "scaled_t10",
            "sigma_sq": 1.0, "signal": {"mode": "sphere", "radius": 1.0},
            "eta_grid": "0:1.5:161", "reps": self.reps, "argmin_reps": self.reps,
            "seed": self.seed, "threads": 1,
        }

    def expected_rows(self, csv, reps):
        if csv == "risk_curves.csv":
            return 161 * 4
        kept = [a - f for name, a, f in reps if name == "run_argmin_experiment"]
        return 3 * sum(kept)


class McTuneGauss(_MonteCarlo):
    """sim fig2 with Gaussian draws across a dual and a primal shape."""

    name = "mc_tune_gauss"
    experiment = "fig2"
    reps = 16
    outputs = {
        "tuning.csv": ["phi", "method", "kind", "risk_mean", "risk_sd"],
        "coverage.csv": ["phi", "method", "coverage_mean", "ci_len_mean", "oracle_len"],
    }

    def config(self):
        return {
            "m": 200, "phi_grid": [0.5, 0.75, 1.5], "model": SPIKE,
            "design_dist": "gaussian", "noise_dist": "gaussian",
            "sigma_sq": 1.0, "signal": {"mode": "sphere", "radius": 1.0},
            "eta_grid": "0:1.5:31", "reps": self.reps, "k": 5, "alpha": 0.05,
            "seed": self.seed, "threads": 1,
        }

    def expected_rows(self, csv, reps):
        return 27 if csv == "tuning.csv" else 9


class TheoryGridExplicit(Workload):
    """fpe, risk and lq on an Explicit spectrum of 10^5 distinct eigenvalues."""

    name = "theory_grid_explicit"
    unit = "grid points"
    setup_kind = "problem"
    input_file = "problem.json"
    n = 100_000
    grid = 161
    outputs = {
        "fpe.csv": ["eta", "tau", "gamma_sq", "tau_prime", "tau_second",
                    "gamma_tilde_sq", "m", "m_prime", "m_second"],
        "risk.csv": ["eta", "kind", "theoretical", "rmt", "derivative"],
        "lq.csv": ["q", "risk"],
    }
    # agreement with the committed reference: |a - b| <= TOL * max(1, |b|)
    TOL = 1e-9
    # reference rows kept per file: every stride-th row
    STRIDES = {"fpe.csv": 4, "risk.csv": 5, "lq.csv": 1}

    def generate(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        lam = np.exp(rng.uniform(math.log(0.05), math.log(20.0), self.n))
        lam = np.sort(lam)[::-1]
        if np.unique(lam).size != self.n:
            raise ValueError(f"seed {self.seed} drew repeated eigenvalues")
        problem = {
            "phi": 0.5, "eta": 0.5, "sigma_sq": 1.0,
            "model": {"kind": "explicit", "n": self.n, "eigenvalues": lam.tolist()},
            "mu0": {"mode": "sphere", "radius": 1.0, "seed": self.seed},
            "eta_grid": f"0:1.5:{self.grid}",
        }
        with open(self.path(self.input_file), "w") as fh:
            json.dump(problem, fh)

    def commands(self):
        cfg = self.path(self.input_file)
        return [
            ["fpe", "--config", cfg, "--out", self.path("fpe.csv")],
            ["risk", "--config", cfg, "--out", self.path("risk.csv")],
            ["lq", "--config", cfg, "--eta", "0.5", "--q", "1,2,4",
             "--out", self.path("lq.csv")],
        ]

    def warmup(self, run):
        # the cheapest command loads the problem and touches every layer
        return _exit_problems(run(self.commands()[2]))

    def check(self, outcomes):
        problems = []
        rows_expected = {"fpe.csv": self.grid, "risk.csv": 4 * self.grid, "lq.csv": 3}
        for outcome, (csv, header) in zip(outcomes, self.outputs.items()):
            found = _exit_problems(outcome)
            if not found:
                found = csv_problems(self.path(csv), header, rows_expected[csv])
            if not found and csv == "fpe.csv":
                found = self._fpe_problems()
            problems.append(found)
        if not any(problems) and self.seed == DEFAULT_SEED:
            for found, csv in zip(problems, self.outputs):
                found += self.reference_problems(csv)
        return problems

    def _fpe_problems(self):
        _, rows = read_csv(self.path("fpe.csv"))
        tau = np.array([r[1] for r in rows])
        m_val = np.array([r[6] for r in rows])
        problems = []
        if np.any(tau <= 0):
            problems.append("fpe.csv: tau <= 0")
        if np.max(np.abs(tau * m_val - 1.0)) > 1e-12:
            problems.append("fpe.csv: tau * m != 1")
        return problems

    def reference_values(self) -> dict:
        return {
            csv: read_csv(self.path(csv))[1][::stride]
            for csv, stride in self.STRIDES.items()
        }

    def reference_problems(self, csv: str) -> list[str]:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        if ref["seed"] != self.seed:
            return [f"reference was computed at seed {ref['seed']}"]
        rows = read_csv(self.path(csv))[1][:: self.STRIDES[csv]]
        want = ref["rows"][csv]
        if len(rows) != len(want):
            return [f"{csv}: {len(rows)} reference rows, expected {len(want)}"]
        problems = []
        for got_row, want_row in zip(rows, want):
            for got, exp in zip(got_row, want_row):
                if isinstance(exp, float):
                    ok = got is not None and abs(got - exp) <= self.TOL * max(1.0, abs(exp))
                else:
                    ok = got == exp
                if not ok:
                    problems.append(f"{csv}: {got!r} != reference {exp!r} in row {want_row}")
        return problems[:5]

    def work_done(self, outcomes):
        # eta points solved: both grids plus lq's single eta
        return 2 * self.grid + 1


class DataCli(Workload):
    """fit, ci and tune on a generated 1000 x 2000 Gaussian dataset."""

    name = "data_cli"
    unit = "commands"
    setup_kind = "dataset"
    input_file = "data.json"
    m, n = 1000, 2000
    grid = "0:1.5:31"
    fit_keys = ["m", "n", "eta", "mu_hat_norm", "resid_norm", "df", "tau_hat",
                "gamma_hat", "sigma_hat_sq", "sigma_hat_sq_clamped"]

    blas_parallel = True

    def generate(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        a, b, m, n = SPIKE["a"], SPIKE["b"], self.m, self.n
        z = rng.standard_normal((m, n))
        # X = Z Sigma^{1/2} with Sigma = a I + b 11^T
        root_a, root_top = math.sqrt(a), math.sqrt(a + b * n)
        x = root_a * z + np.outer(z.sum(axis=1) * ((root_top - root_a) / n), np.ones(n))
        g = rng.standard_normal(n)
        mu0 = g / np.linalg.norm(g)
        xi = rng.standard_normal(m)
        data = {
            "x": _encode(x), "y": _encode(x @ mu0 + xi),
            "model": {**SPIKE, "n": n}, "mu0": _encode(mu0), "xi": _encode(xi),
        }
        with open(self.path(self.input_file), "w") as fh:
            json.dump(data, fh)

    def commands(self):
        data = self.path(self.input_file)
        return [
            ["fit", "--data", data, "--eta", "0"],
            ["fit", "--data", data, "--eta", "0.5"],
            ["ci", "--data", data, "--eta", "0.5", "--out", self.path("ci.csv")],
            ["tune", "--data", data, "--method", "gcv", "--grid", self.grid,
             "--out", self.path("gcv.csv")],
            ["tune", "--data", data, "--method", "cv", "--k", "5", "--grid", self.grid,
             "--seed", str(self.seed), "--out", self.path("cv.csv")],
        ]

    def warmup(self, run):
        return _exit_problems(run(self.commands()[1]))

    @staticmethod
    def _fields(outcome: Outcome) -> dict:
        fields = {}
        for line in outcome.stdout.splitlines():
            key, sep, val = line.partition("=")
            if sep:
                fields[key] = val
        return fields

    def check(self, outcomes):
        problems = [_exit_problems(o) for o in outcomes]
        if any(problems):
            return problems
        fields = [self._fields(o) for o in outcomes]
        for i in (0, 1):
            found = problems[i]
            if list(fields[i]) != self.fit_keys:
                found.append(f"fit printed {list(fields[i])}")
                continue
            vals = {k: float(v) for k, v in fields[i].items()}
            if not all(math.isfinite(v) for v in vals.values()):
                found.append("fit printed a non-finite value")
            if (vals["m"], vals["n"], vals["eta"]) != (self.m, self.n, 0.5 * i):
                found.append(f"fit printed m, n, eta = {vals['m']}, {vals['n']}, {vals['eta']}")
        ci = problems[2]
        ci += csv_problems(self.path("ci.csv"), ["j", "lower", "upper", "covered"], self.n)
        if set(fields[2]) != {"coverage", "gamma_hat"}:
            ci.append(f"ci printed {sorted(fields[2])}")
        elif fields[2]["gamma_hat"] != fields[1].get("gamma_hat"):
            ci.append("ci and fit disagree on gamma_hat at eta = 0.5")
        elif not 0.0 <= float(fields[2]["coverage"]) <= 1.0:
            ci.append(f"coverage {fields[2]['coverage']} outside [0, 1]")
        grid = np.linspace(0.0, 1.5, 31)
        for i, csv in ((3, "gcv.csv"), (4, "cv.csv")):
            found = problems[i]
            found += csv_problems(self.path(csv), ["eta", "objective"], grid.size)
            if found:
                continue
            eta_hat = float(fields[i].get("eta_hat", "nan"))
            if eta_hat not in grid:
                found.append(f"{csv}: eta_hat {eta_hat} is not a grid point")
            _, rows = read_csv(self.path(csv))
            if eta_hat != rows[int(np.argmin([r[1] for r in rows]))][0]:
                found.append(f"{csv}: eta_hat {eta_hat} is not the objective's argmin")
        return problems

    def work_done(self, outcomes):
        return len(outcomes)


WORKLOADS = {
    cls.name: cls for cls in (McRiskT10, McTuneGauss, TheoryGridExplicit, DataCli)
}
