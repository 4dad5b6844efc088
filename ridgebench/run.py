"""ridgelab's benchmark. Run it from the root of a checkout:

  python3 ridgebench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn. The benchmark writes the workload's inputs from the seed, then
starts fresh interpreters with BLAS threads pinned in their environment
only: several that each time ``import ridgelab`` plus loading the input
(setup_s), and one that runs the workload's ``ridgelab.cli.run`` calls
for S seconds and checks every output. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics derived from the spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch files live under
.bench_work/ in the checkout; the latest span file of each workload is
kept there as traces/<workload>.csv.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from child import nproc  # noqa: E402

WORK_DIR = ".bench_work"
SETUP_SAMPLES = 5
# all children of one workload must end within this many seconds, so a
# hung child cannot keep a run going past three minutes
WORKLOAD_BUDGET_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env(root: str, wl) -> dict:
    env = dict(os.environ)
    env.pop("RIDGELAB_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in BLAS_VARS:
        env[var] = str(wl.blas_threads)
    return env


def spawn(root: str, env: dict, deadline: float, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[name](work, seed, nproc())
        wl.generate()
        env = child_env(root, wl)
        setup = []
        if not trace:
            for _ in range(SETUP_SAMPLES):
                out = spawn(root, env, deadline, "setup", "--kind", wl.setup_kind,
                            "--input", wl.path(wl.input_file))
                setup.append(json.loads(out)["setup_s"])
        spawn(root, env, deadline, "measure", "--workload", name, "--work", work, "--seed",
              str(seed), "--seconds", str(seconds), "--trace", str(int(trace)))
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        spans = []
        if trace:
            spans_path = os.path.join(work, "spans.csv")
            spans = tr.read_spans(spans_path)
            keep = os.path.join(root, WORK_DIR, "traces")
            os.makedirs(keep, exist_ok=True)
            shutil.copyfile(spans_path, os.path.join(keep, f"{name}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    problems = result["warmup_problems"] + [p for ps in passes for p in ps["problems"]]
    report = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    print(f"# {name} seed={seed} env {json.dumps(result['env'])}")
    print(f"# {name} pass wall_s {[[round(w, 3) for w in p['wall_s']] for p in passes]}")
    for problem in problems[:20]:
        print(f"# {name} PROBLEM {problem}")
    print(f"# {name} failed_frac = {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} failed)")
    if trace:
        report["metrics"] = _layer_metrics(name, passes, spans)
    else:
        report["metrics"] = _end_to_end(name, wl.unit, passes, setup, result["peak_rss_mb"])
    return report


def _end_to_end(name, unit, passes, setup, rss) -> dict:
    samples = {
        "wall_s": [sum(p["wall_s"]) for p in passes],
        "work_per_s": [p["work"] / sum(p["wall_s"]) for p in passes],
        "cpu_s": [sum(p["cpu_s"]) for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [rss],
    }
    what = {
        "wall_s": "per pass", "work_per_s": f"{unit} per second", "cpu_s": "per pass",
        "setup_s": "per fresh interpreter", "peak_rss_mb": "of the measuring process",
    }
    metrics = {}
    for metric, unit_ in END_TO_END:
        value = statistics.median(samples[metric])
        metrics[metric] = {"value": value, "unit": unit_}
        print(f"# {name} {metric} = {value:.6g} {unit_} median {what[metric]} "
              f"({spread(samples[metric])})")
    return metrics


def _layer_metrics(name, passes, spans) -> dict:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    plain = [sum(p["wall_s"]) for p in passes if not p["traced"]]
    traced_wall = statistics.median(sum(passes[i]["wall_s"]) for i in traced)
    overhead = traced_wall / statistics.median(plain) - 1
    per_pass = [
        tr.layer_metrics([s for s in spans if s.run == i], passes[i]["reps_failed"], overhead)
        for i in traced
    ]
    metrics = {}
    for metric, unit in tr.PER_LAYER:
        # median_low keeps counts exact: it is always one pass's value
        value = statistics.median_low(m[metric] for m in per_pass)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"# {name} {metric} = {value:.6g} {unit} median per traced pass "
              f"(n={len(per_pass)})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ridgebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ridgelab", "cli.py")):
        print("ridgebench: no ridgelab sources at ./src/ridgelab; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
