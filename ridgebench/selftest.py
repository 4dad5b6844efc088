"""Self-test of the benchmark's tracer on tiny configs with exact counts.

  python3 ridgebench/selftest.py      (from the root of a checkout)

Checks that every wrapped name is found and restored, that span counts
match what the cli must do, that spans nest correctly under --threads 2
(per-thread stacks, pool tasks attached to their experiment), and that a
traced run writes CSVs byte-identical to an untraced one. Exits 1 on the
first failed check.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
from ridgelab import cli  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def _run(argv: list, tracer: tr.Tracer | None = None) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tracer.span("cli", cli.run, argv) if tracer else cli.run(argv)
    expect(rc == 0, f"{' '.join(argv)} exited {rc}")


def _traced(argv: list) -> tr.Tracer:
    tracer = tr.Tracer()
    tracer.install()
    try:
        _run(argv, tracer)
    finally:
        tracer.uninstall()
    return tracer


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _originals() -> dict:
    sites = [(m, p) for m, p, _, _ in tr.PATCHES] + list(tr.STREAM_SITES) + [tr.POOL_SITE]
    return {(m, p): getattr(*tr._resolve(m, p)) for m, p in sites}


def check_nesting(spans: list) -> None:
    """Same-thread children lie inside their parents; pool tasks inside
    the span that submitted them; every span reaches a root cli span."""
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is None:
            expect(s.name == "cli", f"{s.name} span has no parent")
            continue
        parent = by_id[s.parent]
        expect(parent.start <= s.start and s.end <= parent.end,
               f"{s.name} span lies outside its parent {parent.name}")
        if s.segment:
            expect(parent.name == s.name, "a pool task is not named after its submitter")
        else:
            expect(parent.thread == s.thread, f"{s.name} has a parent on another thread")


def check_fig1(work: str) -> None:
    config = {
        "m": 20, "n": 40, "model": {"kind": "spiked_uniform", "a": 1.99, "b": 0.01},
        "design_dist": "scaled_t10", "noise_dist": "scaled_t10", "sigma_sq": 1.0,
        "eta_grid": "0:1.5:11", "reps": 2, "argmin_reps": 2, "seed": 3,
    }
    cfg = os.path.join(work, "fig1.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)

    def argv(out, threads):
        return ["sim", "fig1", "--config", cfg, "--out-dir", os.path.join(work, out),
                "--threads", str(threads)]

    tap = tr.ReplicationTap()
    saved = {n: getattr(cli, n) for n in tap.SITES}
    tap.install()
    try:
        _run(argv("plain", 1))
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    expect(tap.calls == [("run_risk_experiment", 2, 0), ("run_argmin_experiment", 2, 0)],
           f"replication tap recorded {tap.calls}")

    # per experiment and rep: one design and one noise draw of t(10); the
    # 11 stream() calls (2 x 2 x 2 design and noise, 3 signals) each make
    # one draw
    expected = {
        "stats.t10": 8, "simlab.sample": 11, "simlab.experiment": 2, "regress.gram": 4,
        "regress.sweep_eval": 2 * 22 + 2 * 11, "fixedpoint.solve": 11,
        "spectrum.apply": 4 + 2 * 11 + 2 * 11, "regress.factor": 4,
        "rng.stream": 11 + 11,
        "dataio.write": 3, "dataio.load": 1, "cli": 1,
    }
    for threads in (1, 2):
        tracer = _traced(argv(f"traced{threads}", threads))
        totals = tr.span_totals(tracer.spans)
        for name, count in expected.items():
            got = totals["count"][name]
            expect(got == count, f"--threads {threads}: {got} {name} spans, expected {count}")
        expect(totals["value"]["stats.t10"] == 4 * (20 * 40 + 20),
               f"--threads {threads}: {totals['value']['stats.t10']} t(10) draws")
        expect(totals["value"]["rng.stream"] == 2 * 4 + 3,
               f"--threads {threads}: {totals['value']['rng.stream']} stream() calls")
        check_nesting(tracer.spans)
        segments = [s for s in tracer.spans if s.segment]
        expect(len(segments) == (0 if threads == 1 else 4),
               f"--threads {threads}: {len(segments)} pool tasks traced")
        if threads == 2:
            main = {s.thread for s in tracer.spans if s.name == "cli"}
            workers = {s.thread for s in tracer.spans} - main
            expect(len(workers) >= 1, "--threads 2 ran no span on a worker thread")
        for csv in ("risk_curves.csv", "argmin.csv"):
            expect(_read(os.path.join(work, "plain", csv))
                   == _read(os.path.join(work, f"traced{threads}", csv)),
                   f"traced --threads {threads} {csv} differs from the untraced run")


def check_fpe(work: str) -> None:
    problem = {
        "phi": 0.5, "eta": 0.5, "sigma_sq": 1.0,
        "model": {"kind": "spiked_uniform", "a": 1.99, "b": 0.01, "n": 50},
        "mu0": {"mode": "sphere", "radius": 1.0, "seed": 1}, "eta_grid": "0:1.5:161",
    }
    cfg = os.path.join(work, "problem.json")
    with open(cfg, "w") as fh:
        json.dump(problem, fh)
    plain, traced = os.path.join(work, "fpe_plain.csv"), os.path.join(work, "fpe_traced.csv")
    _run(["fpe", "--config", cfg, "--out", plain])
    tracer = _traced(["fpe", "--config", cfg, "--out", traced])
    counts = tr.span_totals(tracer.spans)["count"]
    for name in ("fixedpoint.solve", "fixedpoint.tau_bounds"):
        expect(counts[name] == 161, f"fpe over 161 etas made {counts[name]} {name} calls")
    check_nesting(tracer.spans)
    expect(_read(plain) == _read(traced), "traced fpe.csv differs from the untraced one")


def check_install(work: str) -> None:
    before = _originals()
    tracer = tr.Tracer()
    tracer.install()
    tracer.uninstall()
    expect(_originals() == before, "uninstall left a wrapped name behind")
    expect(sys.modules["ridgelab.regress"].np is np, "uninstall left a numpy view behind")

    module = sys.modules["ridgelab.dataio"]
    saved = module.write_run_meta
    del module.write_run_meta
    try:
        tracer.install()
    except tr.TraceError as exc:
        expect("ridgelab.dataio.write_run_meta" in str(exc), f"error does not name it: {exc}")
    else:
        raise SelfTestFailure("install succeeded with ridgelab.dataio.write_run_meta missing")
    finally:
        module.write_run_meta = saved
    expect(_originals() == before, "a failed install left a wrapped name behind")

    result = types.SimpleNamespace(failed=(5,), reps=200, phis=[0.5, 1.5], rep_indices=(0, 1))
    expect(tr._rep_counts("run_risk_experiment", result) == (200, 1), "risk rep counts")
    expect(tr._rep_counts("run_tuning_experiment", result) == (400, 1), "tuning rep counts")
    expect(tr._rep_counts("run_argmin_experiment", result) == (3, 1), "argmin rep counts")


def main() -> int:
    work = os.path.join(os.getcwd(), ".bench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        for check in (check_install, check_fig1, check_fpe):
            check(work)
            print(f"ok {check.__name__}")
    except SelfTestFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
