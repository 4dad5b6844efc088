"""Outside-in span tracer for ridgelab's layers.

The tracer wraps the public functions each layer exposes at the names
their callers look them up (``ridgelab.simlab.scaled_t10``, not
``ridgelab.stats.scaled_t10``), so nothing inside ``src/`` changes. A
span records name, start, end, parent, thread and run id; spans stay in
memory until the run ends. Each thread keeps its own span stack. Work
that ``simlab`` hands to its replication thread pool runs under a
*segment*: a span with the submitting span's name and id as parent, so
worker-thread spans attach to the experiment that caused them.

Derived numbers (see ``layer_metrics``):

* ``busy_s``: summed duration of a layer's outermost spans, across
  threads (a span nested in a span of the same layer is not counted
  again);
* ``self_s``: each span's duration minus the union of its child spans'
  intervals, summed over the layer's spans and segments;
* counts are exact numbers of calls, and "computed" values (draws,
  eigenvalues touched, flops, bytes) are evaluated from the call's
  arguments or result after the span has ended.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import types
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np


class TraceError(RuntimeError):
    """A name the tracer must wrap is missing from the program."""


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    run: int
    value: int
    segment: bool


_MISSING = object()


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _distinct_eigenvalues(args, kwargs, result):
    return int(args[0].pairs()[0].size)


def _cubed_dim(args, kwargs, result):
    return int(np.shape(args[0])[0]) ** 3


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _meta_bytes(args, kwargs, result):
    return os.path.getsize(os.path.join(args[0], "run_meta.json"))


# (module, attribute path from that module, layer, value function).
# A path through a foreign module (numpy, scipy) wraps that module as the
# ridgelab module reaches it, leaving every other user of it untouched.
PATCHES = (
    ("ridgelab.simlab", "scaled_t10", "stats.t10", _result_size),
    ("ridgelab.simlab", "sample_design", "simlab.sample", None),
    ("ridgelab.simlab", "sample_noise", "simlab.sample", None),
    ("ridgelab.simlab", "sample_signal", "simlab.sample", None),
    ("ridgelab.cli", "sample_signal", "simlab.sample", None),
    ("ridgelab.cli", "run_risk_experiment", "simlab.experiment", None),
    ("ridgelab.cli", "run_argmin_experiment", "simlab.experiment", None),
    ("ridgelab.cli", "run_tuning_experiment", "simlab.experiment", None),
    ("ridgelab.regress", "GramSweep.__init__", "regress.gram", None),
    ("ridgelab.regress", "GramSweep.mu_hat", "regress.sweep_eval", None),
    ("ridgelab.regress", "GramSweep.resid", "regress.sweep_eval", None),
    ("ridgelab.regress", "GramSweep.tau_hat", "regress.sweep_eval", None),
    ("ridgelab.regress", "GramSweep.gamma_hat", "regress.sweep_eval", None),
    ("ridgelab.simlab", "kfold_objective", "regress.kfold", None),
    ("ridgelab.regress", "kfold_objective", "regress.kfold", None),
    ("ridgelab.cli", "kfold_select", "regress.kfold", None),
    ("ridgelab.cli", "ridge_fit", "regress.standalone", None),
    ("ridgelab.cli", "ridgeless_fit", "regress.standalone", None),
    ("ridgelab.cli", "tau_hat", "regress.standalone", None),
    ("ridgelab.cli", "gamma_hat", "regress.standalone", None),
    ("ridgelab.cli", "df_hat", "regress.standalone", None),
    ("ridgelab.regress", "tau_hat", "regress.standalone", None),
    ("ridgelab.cli", "debias", "regress.ci", None),
    ("ridgelab.cli", "confidence_intervals", "regress.ci", None),
    ("ridgelab.simlab", "debias", "regress.ci", None),
    ("ridgelab.simlab", "confidence_intervals", "regress.ci", None),
    ("ridgelab.regress", "np.linalg.eigh", "regress.factor", _cubed_dim),
    ("ridgelab.regress", "np.linalg.eigvalsh", "regress.factor", _cubed_dim),
    ("ridgelab.regress", "scipy.linalg.cho_factor", "regress.factor", _cubed_dim),
    ("ridgelab.fixedpoint", "trace_functional", "spectrum.tf", _distinct_eigenvalues),
    ("ridgelab.riskengine", "trace_functional", "spectrum.tf", _distinct_eigenvalues),
    ("ridgelab.spectrum", "trace_functional", "spectrum.tf", _distinct_eigenvalues),
    ("ridgelab.fixedpoint", "quad_form", "spectrum.quad_form", None),
    ("ridgelab.riskengine", "quad_form", "spectrum.quad_form", None),
    ("ridgelab.spectrum", "Isotropic.apply", "spectrum.apply", None),
    ("ridgelab.spectrum", "SpikedUniform.apply", "spectrum.apply", None),
    ("ridgelab.spectrum", "Explicit.apply", "spectrum.apply", None),
    ("ridgelab.cli", "solve_effective", "fixedpoint.solve", None),
    ("ridgelab.simlab", "solve_effective", "fixedpoint.solve", None),
    ("ridgelab.riskengine", "solve_effective", "fixedpoint.solve", None),
    ("ridgelab.fixedpoint", "tau_bounds", "fixedpoint.tau_bounds", None),
    ("ridgelab.cli", "theoretical_risk", "riskengine.eval", None),
    ("ridgelab.cli", "rmt_risk", "riskengine.eval", None),
    ("ridgelab.cli", "risk_derivative", "riskengine.eval", None),
    ("ridgelab.simlab", "theoretical_risk", "riskengine.eval", None),
    ("ridgelab.simlab", "rmt_risk", "riskengine.eval", None),
    ("ridgelab.cli", "lq_gamma_diag", "riskengine.lq", None),
    ("ridgelab.cli", "lq_risk", "riskengine.lq", None),
    ("ridgelab.dataio", "load_json", "dataio.load", None),
    ("ridgelab.dataio", "dataset_from_json", "dataio.load", None),
    ("ridgelab.dataio", "write_csv", "dataio.write", _csv_bytes),
    ("ridgelab.dataio", "write_run_meta", "dataio.write", _meta_bytes),
)

# stream() is wrapped so that the generators it returns time their draws
STREAM_SITES = (("ridgelab.simlab", "stream"), ("ridgelab.rng", "stream"))
# simlab's replication pool, replaced by one that carries span parents
POOL_SITE = ("ridgelab.simlab", "ThreadPoolExecutor")
_DRAW_METHODS = ("random", "standard_normal", "permutation")


class _View:
    """A foreign module as one ridgelab module sees it: attributes set on
    the view shadow the module's, everything else reads through."""

    def __init__(self, target):
        self.__dict__["_target"] = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _resolve(modname: str, path: str):
    """Owner object and attribute name of ``modname``.``path``; raises
    TraceError naming the first missing part."""
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if getattr(owner, part, _MISSING) is _MISSING:
            missing = ".".join([modname] + parts[: depth + 1])
            raise TraceError(
                f"cannot trace {modname}.{path}: {missing} is missing"
            )
        if depth < len(parts) - 1:
            owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, value_fn=None, parent=None, segment=False):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            value = value_fn(args, kwargs, result) if (done and value_fn) else 0
            self.spans.append(
                Span(sid, name, parent, threading.get_ident(), start, end,
                     self.run, value, segment)
            )

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, fn, name, value_fn=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, value_fn)

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _owner_for_patch(self, modname, path):
        """Like _resolve, but replaces foreign modules on the way by views."""
        _resolve(modname, path)
        owner = importlib.import_module(modname)
        parts = path.split(".")
        for part in parts[:-1]:
            child = getattr(owner, part)
            if isinstance(child, types.ModuleType) and not child.__name__.startswith(
                "ridgelab"
            ):
                child = _View(child)
                self._set(owner, part, child)
            owner = child
        return owner, parts[-1]

    def install(self):
        """Wrap every site; on a missing name, undo and raise TraceError."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        try:
            for modname, path, layer, value_fn in PATCHES:
                owner, name = self._owner_for_patch(modname, path)
                self._set(owner, name, self.wrap(getattr(owner, name), layer, value_fn))
            for modname, path in STREAM_SITES:
                owner, name = _resolve(modname, path)
                self._set(owner, name, self._traced_stream(getattr(owner, name)))
            owner, name = _resolve(*POOL_SITE)
            self._set(owner, name, self._traced_pool(getattr(owner, name)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _traced_stream(self, stream):
        tracer = self
        generator_cls = _traced_generator_class(self)

        @functools.wraps(stream)
        def traced(*args, **kwargs):
            gen = tracer.call("rng.stream", stream, args, kwargs, lambda *_: 1)
            return generator_cls(gen.bit_generator)

        return traced

    def _traced_pool(self, pool_cls):
        tracer = self

        class TracedPool(pool_cls):
            def submit(self, fn, /, *args, **kwargs):
                top = tracer.current()
                if top is None:
                    return super().submit(fn, *args, **kwargs)
                sid, name = top
                return super().submit(
                    tracer.call, name, fn, args, kwargs, None, sid, True
                )

        return TracedPool


def _traced_generator_class(tracer: Tracer):
    """np.random.Generator subclass whose draws are rng.stream spans.

    It shares the wrapped generator's bit generator, so the draws are the
    same numbers the untraced program would see.
    """

    def method(base):
        def traced(self, *args, **kwargs):
            return tracer.call("rng.stream", base, (self,) + args, kwargs)

        return traced

    attrs = {m: method(getattr(np.random.Generator, m)) for m in _DRAW_METHODS}
    return type("TracedGenerator", (np.random.Generator,), attrs)


class ReplicationTap:
    """Counts the replications that cli's experiment calls attempt and skip.

    The run_*_experiment functions return the skipped replications in a
    ``failed`` tuple that the cli drops; the tap reads it where the cli
    calls them. It stays installed in untraced runs: it costs one
    function call per experiment.
    """

    SITES = ("run_risk_experiment", "run_argmin_experiment", "run_tuning_experiment")

    def __init__(self):
        self.calls: list[tuple[str, int, int]] = []

    def install(self):
        for name in self.SITES:
            owner, attr = _resolve("ridgelab.cli", name)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name, fn):
        tap = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tap.calls.append((name,) + _rep_counts(name, result))
            return result

        return counted


def _rep_counts(name, result) -> tuple[int, int]:
    """(attempted, skipped) replications of one experiment result."""
    try:
        failed = len(result.failed)
        if name == "run_argmin_experiment":
            return len(result.rep_indices) + failed, failed
        if name == "run_tuning_experiment":
            return result.reps * len(result.phis), failed
        return result.reps, failed
    except AttributeError as exc:
        raise TraceError(f"cannot count the replications of {name}: {exc}") from exc


# -- derivation -----------------------------------------------------------

# (metric, unit); values are per traced pass of the workload's commands
PER_LAYER = (
    ("stats.t10.busy_s", "s"),
    ("stats.t10.draws", "count"),
    ("stats.t10.ns_per_draw", "ns"),
    ("rng.stream.calls", "count"),
    ("rng.stream.busy_s", "s"),
    ("simlab.sample.self_s", "s"),
    ("simlab.experiment.self_s", "s"),
    ("simlab.reps_failed", "count"),
    ("regress.gram.count", "count"),
    ("regress.gram.busy_s", "s"),
    ("regress.sweep_eval.count", "count"),
    ("regress.sweep_eval.busy_s", "s"),
    ("regress.kfold.busy_s", "s"),
    ("regress.standalone.busy_s", "s"),
    ("regress.ci.busy_s", "s"),
    ("regress.factorizations", "count"),
    ("regress.factor_flops", "flop"),
    ("regress.factor.busy_s", "s"),
    ("spectrum.tf.calls", "count"),
    ("spectrum.tf.elems", "count"),
    ("spectrum.tf.busy_s", "s"),
    ("spectrum.quad_form.busy_s", "s"),
    ("spectrum.apply.busy_s", "s"),
    ("fixedpoint.solves", "count"),
    ("fixedpoint.tf_per_solve", "ratio"),
    ("fixedpoint.solve.busy_s", "s"),
    ("fixedpoint.tau_bounds.busy_s", "s"),
    ("riskengine.eval.busy_s", "s"),
    ("riskengine.lq.busy_s", "s"),
    ("dataio.load.busy_s", "s"),
    ("dataio.write.busy_s", "s"),
    ("dataio.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _covered(children: list[Span], start: float, end: float) -> float:
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_totals(spans: list[Span]) -> dict:
    """busy, self, count and value per span name for one pass."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    busy, self_s = defaultdict(float), defaultdict(float)
    count, value = Counter(), Counter()
    tf_in_solve = 0
    for s in spans:
        names = {a.name for a in ancestors(s)}
        if s.name not in names:
            busy[s.name] += s.end - s.start
        self_s[s.name] += s.end - s.start - _covered(children[s.id], s.start, s.end)
        if not s.segment:
            count[s.name] += 1
            value[s.name] += s.value
        if s.name == "spectrum.tf" and "fixedpoint.solve" in names:
            tf_in_solve += 1
    return {"busy": busy, "self": self_s, "count": count, "value": value,
            "tf_in_solve": tf_in_solve}


def layer_metrics(spans: list[Span], reps_failed: int, overhead_frac: float) -> dict:
    """Every PER_LAYER metric for one traced pass."""
    t = span_totals(spans)
    busy, self_s, count, value = t["busy"], t["self"], t["count"], t["value"]
    draws = value["stats.t10"]
    solves = count["fixedpoint.solve"]
    out = {
        "stats.t10.busy_s": busy["stats.t10"],
        "stats.t10.draws": draws,
        "stats.t10.ns_per_draw": busy["stats.t10"] / draws * 1e9 if draws else 0.0,
        "rng.stream.calls": value["rng.stream"],
        "rng.stream.busy_s": busy["rng.stream"],
        "simlab.sample.self_s": self_s["simlab.sample"],
        "simlab.experiment.self_s": self_s["simlab.experiment"],
        "simlab.reps_failed": reps_failed,
        "regress.gram.count": count["regress.gram"],
        "regress.gram.busy_s": busy["regress.gram"],
        "regress.sweep_eval.count": count["regress.sweep_eval"],
        "regress.sweep_eval.busy_s": busy["regress.sweep_eval"],
        "regress.kfold.busy_s": busy["regress.kfold"],
        "regress.standalone.busy_s": busy["regress.standalone"],
        "regress.ci.busy_s": busy["regress.ci"],
        "regress.factorizations": count["regress.factor"],
        "regress.factor_flops": value["regress.factor"],
        "regress.factor.busy_s": busy["regress.factor"],
        "spectrum.tf.calls": count["spectrum.tf"],
        "spectrum.tf.elems": value["spectrum.tf"],
        "spectrum.tf.busy_s": busy["spectrum.tf"],
        "spectrum.quad_form.busy_s": busy["spectrum.quad_form"],
        "spectrum.apply.busy_s": busy["spectrum.apply"],
        "fixedpoint.solves": solves,
        "fixedpoint.tf_per_solve": t["tf_in_solve"] / solves if solves else 0.0,
        "fixedpoint.solve.busy_s": busy["fixedpoint.solve"],
        "fixedpoint.tau_bounds.busy_s": busy["fixedpoint.tau_bounds"],
        "riskengine.eval.busy_s": busy["riskengine.eval"],
        "riskengine.lq.busy_s": busy["riskengine.lq"],
        "dataio.load.busy_s": busy["dataio.load"],
        "dataio.write.busy_s": busy["dataio.write"],
        "dataio.bytes_written": value["dataio.write"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_frac": overhead_frac,
    }
    return {name: out[name] for name, _ in PER_LAYER}


SPAN_HEADER = "id,name,parent,thread,start,end,run,value,segment"


def write_spans(path: str, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        fh.write(SPAN_HEADER + "\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{s.name},{parent},{s.thread},{s.start!r},{s.end!r},"
                     f"{s.run},{s.value},{int(s.segment)}\n")


def read_spans(path: str) -> list[Span]:
    with open(path) as fh:
        if fh.readline().strip() != SPAN_HEADER:
            raise ValueError(f"{path} is not a span file")
        spans = []
        for line in fh:
            i, name, parent, thread, start, end, run, value, seg = line.rstrip("\n").split(",")
            spans.append(Span(int(i), name, int(parent) if parent else None, int(thread),
                              float(start), float(end), int(run), int(value), seg == "1"))
    return spans
