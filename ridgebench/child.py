"""One workload in a fresh interpreter, started by run.py with BLAS
threads pinned in its environment and ./src on PYTHONPATH.

  python3 ridgebench/child.py setup --kind KIND --input FILE
      prints {"setup_s": ...}: the time to import ridgelab and load the
      generated input (KIND is experiment, problem or dataset).
  python3 ridgebench/child.py measure --workload NAME --work DIR --seed N
                                      --seconds S --trace 0|1
      runs untimed warm-up, then timed passes of the workload's cli.run
      calls for S seconds, and writes DIR/result.json. With --trace 1
      the passes alternate untraced and traced, and the spans of the
      traced ones go to DIR/spans.csv.

Only the standard library is imported before set-up is timed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def setup(kind: str, path: str) -> float:
    start = time.perf_counter()
    from ridgelab import dataio, simlab, spectrum

    obj = dataio.load_json(path)
    if kind == "experiment":
        simlab.ExperimentConfig.from_json(obj)
    elif kind == "problem":
        spectrum.model_from_json(obj["model"])
    elif kind == "dataset":
        dataio.dataset_from_json(obj)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return time.perf_counter() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "cpu": _cpu_model(),
    }


def measure(args) -> dict:
    import ridgelab

    source = os.path.realpath(os.path.join(os.getcwd(), "src", "ridgelab"))
    if os.path.dirname(os.path.realpath(ridgelab.__file__)) != source:
        raise RuntimeError(f"imported ridgelab from {ridgelab.__file__}, not {source}")
    from ridgelab import cli

    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.work, args.seed, nproc())
    tap = tr.ReplicationTap()
    tap.install()
    tracer = tr.Tracer()

    def run(argv, traced=False):
        first = len(tap.calls)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.span("cli", cli.run, argv) if traced else cli.run(argv)
            except Exception:  # a raw exception out of cli.run fails the command
                traceback.print_exc()
                rc = -1
        return workloads.Outcome(argv, rc, out.getvalue(), err.getvalue(), tap.calls[first:])

    warmup_problems = wl.warmup(run)
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.run = len(passes)
            tracer.install()
        outcomes, walls, cpus = [], [], []
        for argv in wl.commands():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outcomes.append(run(argv, traced))
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        if traced:
            tracer.uninstall()
        problems = wl.check(outcomes)
        attempted = failed = reps_failed = 0
        for outcome, found in zip(outcomes, problems):
            units = sum(a for _, a, _ in outcome.reps) if outcome.reps else 1
            skipped = sum(f for _, _, f in outcome.reps)
            reps_failed += skipped
            attempted += units
            failed += units if found else skipped
        passes.append({
            "wall_s": walls, "cpu_s": cpus, "traced": traced,
            "work": wl.work_done(outcomes), "attempted": attempted, "failed": failed,
            "reps_failed": reps_failed, "problems": [p for found in problems for p in found],
        })
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    if args.trace:
        tr.write_spans(os.path.join(args.work, "spans.csv"), tracer.spans)
    return {
        "env": environment(),
        "warmup_problems": warmup_problems,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--kind", required=True)
    p.add_argument("--input", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args.kind, args.input)}))
    else:
        result = measure(args)
        with open(os.path.join(args.work, "result.json"), "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
