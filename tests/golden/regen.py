"""Regenerate the golden outputs that tests/test_golden.py holds every command to.

    python tests/golden/regen.py             # rewrite data.json, expected/ and manifest.json
    python tests/golden/regen.py --out DIR   # run every case into DIR, nothing else

Each case is one `ridgelab` command line, run in this process through
`ridgelab.cli.run` with the working directory set to a scratch directory
that holds copies of the inputs under in/. Every path on a command line is
relative to that directory, so run_meta.json and stdout record no path of
the machine. A case's directory gets the files the command writes plus
stdout.txt.

BLAS runs at one thread (OPENBLAS_NUM_THREADS=1, set before numpy loads):
the sims' last digits move with the BLAS thread count, and the CLI's own
--threads is pinned to 1 in the sim cases. manifest.json records the
argv of each case and the Python, numpy and BLAS builds that wrote
expected/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ridgelab import Dataset, SignalVector, spiked_uniform  # noqa: E402
from ridgelab.cli import run  # noqa: E402
from ridgelab.dataio import dataset_to_json  # noqa: E402

EXPECTED = HERE / "expected"
MANIFEST = HERE / "manifest.json"
DATA = HERE / "data.json"
# file name under in/ -> its source
INPUTS = {
    "problem.json": ROOT / "configs" / "problem.json",
    "fig1.json": HERE / "fig1.json",
    "fig2.json": HERE / "fig2.json",
    "data.json": DATA,
}
# case name -> argv; each case writes into its own directory
CASES = {
    "fpe": ["fpe", "--config", "in/problem.json", "--out", "fpe/fpe.csv"],
    "risk": ["risk", "--config", "in/problem.json", "--out", "risk/risk.csv"],
    "lq": ["lq", "--config", "in/problem.json", "--eta", "0.5", "--mc-reps", "100",
           "--out", "lq/lq.csv"],
    "fit": ["fit", "--data", "in/data.json", "--eta", "0"],
    "ci": ["ci", "--data", "in/data.json", "--eta", "0.5", "--out", "ci/ci.csv"],
    "tune_gcv": ["tune", "--data", "in/data.json", "--method", "gcv",
                 "--grid", "0:2:21", "--out", "tune_gcv/tune.csv"],
    "tune_cv": ["tune", "--data", "in/data.json", "--method", "cv", "--k", "4",
                "--grid", "0.05:2:21", "--seed", "3", "--out", "tune_cv/tune.csv"],
    "sim_fig1": ["sim", "fig1", "--config", "in/fig1.json", "--out-dir", "sim_fig1",
                 "--threads", "1"],
    "sim_fig2": ["sim", "fig2", "--config", "in/fig2.json", "--out-dir", "sim_fig2",
                 "--threads", "1"],
}


def make_dataset(m: int = 30, n: int = 50, seed: int = 36) -> Dataset:
    """A seeded overparametrized sample with ||mu0|| = 2 and its ground truth,
    on a spiked model; both tuning methods select inside their grids."""
    rng = np.random.default_rng(seed)
    model = spiked_uniform(1.5, 0.05, n)
    x = model.apply(np.sqrt, rng.standard_normal((n, m))).T
    mu0 = rng.standard_normal(n)
    mu0 *= 2.0 / np.linalg.norm(mu0)
    xi = rng.standard_normal(m)
    return Dataset(x=x, y=x @ mu0 + xi, model=model, mu0=SignalVector(mu0), xi=xi)


def run_cases(out: Path) -> None:
    """Run every case into out/<case>/; a case that does not exit 0 stops the run."""
    with tempfile.TemporaryDirectory() as work:
        os.makedirs(os.path.join(work, "in"))
        for name, source in INPUTS.items():
            shutil.copyfile(source, os.path.join(work, "in", name))
        cwd = os.getcwd()
        os.chdir(work)
        try:
            for case, argv in CASES.items():
                os.makedirs(case, exist_ok=True)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run(argv)
                if code != 0:
                    raise SystemExit(f"case {case} exited {code}: ridgelab {' '.join(argv)}")
                with open(os.path.join(case, "stdout.txt"), "w") as fh:
                    fh.write(stdout.getvalue())
        finally:
            os.chdir(cwd)
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(work, out, ignore=shutil.ignore_patterns("in"))


def blas() -> dict:
    """The BLAS numpy was built against, and the thread count it runs at here."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": config.get("name"), "version": config.get("version"),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, help="run the cases into this directory only")
    args = parser.parse_args()
    if args.out is not None:
        run_cases(args.out)
        return
    DATA.write_text(json.dumps(dataset_to_json(make_dataset())) + "\n")
    run_cases(EXPECTED)
    manifest = {
        "cases": {case: " ".join(["ridgelab", *argv]) for case, argv in CASES.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
