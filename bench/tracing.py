"""Span tracing of privexp from outside, for the benchmark's per-layer figures.

``Tracer.installed(px)`` rebinds every public function of every privexp
module, in every module namespace that holds it, to a wrapper that records a
span; ``Dataset`` is replaced by a subclass whose constructor records one.
Leaving the context restores the originals. A span is
``[name, start_ns, end_ns, parent, call, trial, size, note, error]``: the
caller's span, the benchmark call it belongs to, the trial (the stream id of
the ``RngStream`` it was handed, else its parent's), the number of values it
processed, and one result fact (``NOTES``). Spans stay in memory until the
run ends. A span's self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time

NAME, START, END, PARENT, CALL, TRIAL, SIZE, NOTE, ERROR = range(9)

# Values processed by a span, where the first Dataset argument does not say.
SIZES = {
    "distributions.sample": lambda args, result: args[1],
    "harness.write_sample": lambda args, result: args[2],
    "harness.read_values": lambda args, result: len(result),
}

# One fact about a span's result that a per-layer ratio needs.
NOTES = {
    "pareto.log_transform": lambda r: r.n,
    "quantile.svt_quantile": lambda r: r is None,
    "bounds.find_bounds": lambda r: r is None,
    "learners.best_of_both": lambda r: r.route.value,
}


def _dataset_size(args) -> int:
    for arg in args:
        n = getattr(arg, "n", None)
        if isinstance(n, int) and hasattr(arg, "values"):
            return n
    return 0


def _stream_id(args):
    for arg in args:
        if hasattr(arg, "stream_id") and hasattr(arg, "generator"):
            return arg.stream_id
    return None


class Tracer:
    """In-memory span recorder. Safe under the harness's worker threads: a
    span opened by a worker thread with nothing open on its own stack takes
    the span open on the tracing thread (the waiting ``run_experiment``) as
    its parent."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list = []
        self.call = None

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trial=None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent][TRIAL]
        span = [name, time.perf_counter_ns(), 0, parent, self.call, trial, 0,
                None, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, size: int = 0, note=None, error=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[SIZE], span[NOTE], span[ERROR] = size, note, error
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, name: str, fn):
        size_of = SIZES.get(name, lambda args, result: _dataset_size(args))
        note_of = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, _stream_id(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, _dataset_size(args), None, type(exc).__name__)
                raise
            self.close(index, size_of(args, result),
                       note_of(result) if note_of else None)
            return result
        return traced

    def _traced_dataset(self, base):
        tracer = self

        class Dataset(base):
            def __init__(self, values):
                index = tracer.open("dataset.Dataset")
                try:
                    super().__init__(values)
                finally:
                    tracer.close(index, getattr(self, "n", 0))
        Dataset.__qualname__ = base.__qualname__
        return Dataset

    @contextlib.contextmanager
    def installed(self, px):
        """Trace every public privexp function while the context is open."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == px.__name__ or name.startswith(px.__name__ + ".")]
        replacement = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacement[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        dataset = px.dataset.Dataset
        replacement[id(dataset)] = (dataset, self._traced_dataset(dataset))

        patched = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "call", "trial",
                "size", "note", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list) -> list:
    """Self time in ns of each span: its duration minus the union of its
    children's intervals (children of a threaded run may overlap)."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0, span[START]
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# name -> (unit, better); every name is emitted by every traced run.
LAYER_METRICS = {
    "pareto.log_transform.self_ns_per_value": ("ns/value", "lower"),
    "pareto.log_transform.kept_share": ("share", "higher"),
    "dataset.Dataset.builds": ("1/trial", "lower"),
    "dataset.values_built": ("1/trial", "lower"),
    "dataset.Dataset.self_ns_per_value": ("ns/value", "lower"),
    "distributions.sample.self_ns_per_value": ("ns/value", "lower"),
    "privacy.sample_laplace.calls": ("1/trial", "lower"),
    "privacy.sample_laplace.self_us": ("us/call", "lower"),
    "privacy.noisy_fraction_below.calls": ("1/trial", "lower"),
    "privacy.noisy_fraction_below.self_us": ("us/call", "lower"),
    "quantile.svt_quantile.self_us": ("us/call", "lower"),
    "quantile.svt_quantile.queries": ("1/call", "lower"),
    "quantile.svt_quantile.exhausted": ("share", "lower"),
    "learners.private_mle.self_ns_per_value": ("ns/value", "lower"),
    "learners.quantile_learning.probes": ("1/call", "lower"),
    "learners.quantile_learning.accept_ratio": ("share", "higher"),
    "learners.best_of_both.route_mle_share": ("share", "higher"),
    "bounds.dyadic_histogram.self_ns_per_value": ("ns/value", "lower"),
    "bounds.find_bounds.none_share": ("share", "lower"),
    "analysis.required_n.calls": ("1/setup", "lower"),
    "analysis.required_n.self_us": ("us/call", "lower"),
    "harness.read_values.ns_per_line": ("ns/value", "lower"),
    "harness.estimate_from_file.self_us": ("us/call", "lower"),
    "harness.write_sample.ns_per_value": ("ns/value", "lower"),
    "harness.run_experiment.self_share": ("share", "lower"),
    "cli.main.self_ms": ("ms/call", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def layer_metrics(spans: list, trials: int, setup_spans: list,
                  overhead_share: float) -> dict:
    """The per-layer figures, as name -> value. ``trials`` is the number of
    trials the traced cycles ran; ``setup_spans`` come from one traced
    set-up."""
    selfs = self_times(spans)
    by_name: dict = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name, field):
        if field == "self":
            return sum(selfs[i] for i in by_name.get(name, ()))
        if field == "dur":
            return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ()))
        return sum(spans[i][field] or 0 for i in by_name.get(name, ()))

    def child_count(name, child):
        parents = set(by_name.get(name, ()))
        return sum(1 for i in by_name.get(child, ()) if spans[i][PARENT] in parents)

    def notes(name):
        return [spans[i][NOTE] for i in by_name.get(name, ())]

    def per_value(name):
        return _ratio(total(name, "self"), total(name, SIZE))

    def self_us(name):
        return _ratio(total(name, "self") / 1e3, count(name))

    quantile_ok = sum(1 for i in by_name.get("learners.quantile_learning", ())
                      if spans[i][ERROR] is None)
    setup_selfs = self_times(setup_spans)
    setup_required = [i for i, s in enumerate(setup_spans)
                      if s[NAME] == "analysis.required_n"]
    values = {
        "pareto.log_transform.self_ns_per_value": per_value("pareto.log_transform"),
        "pareto.log_transform.kept_share": _ratio(
            sum(n or 0 for n in notes("pareto.log_transform")),
            total("pareto.log_transform", SIZE)),
        "dataset.Dataset.builds": _ratio(count("dataset.Dataset"), trials),
        "dataset.values_built": _ratio(total("dataset.Dataset", SIZE), trials),
        "dataset.Dataset.self_ns_per_value": per_value("dataset.Dataset"),
        "distributions.sample.self_ns_per_value": per_value("distributions.sample"),
        "privacy.sample_laplace.calls": _ratio(count("privacy.sample_laplace"), trials),
        "privacy.sample_laplace.self_us": self_us("privacy.sample_laplace"),
        "privacy.noisy_fraction_below.calls": _ratio(
            count("privacy.noisy_fraction_below"), trials),
        "privacy.noisy_fraction_below.self_us": self_us("privacy.noisy_fraction_below"),
        "quantile.svt_quantile.self_us": self_us("quantile.svt_quantile"),
        "quantile.svt_quantile.queries": _ratio(
            child_count("quantile.svt_quantile", "privacy.noisy_fraction_below"),
            count("quantile.svt_quantile")),
        "quantile.svt_quantile.exhausted": _ratio(
            sum(1 for n in notes("quantile.svt_quantile") if n),
            count("quantile.svt_quantile")),
        "learners.private_mle.self_ns_per_value": per_value("learners.private_mle"),
        "learners.quantile_learning.probes": _ratio(
            child_count("learners.quantile_learning", "privacy.noisy_fraction_below"),
            count("learners.quantile_learning")),
        "learners.quantile_learning.accept_ratio": _ratio(
            quantile_ok, child_count("learners.quantile_learning",
                                     "privacy.noisy_fraction_below")),
        "learners.best_of_both.route_mle_share": _ratio(
            sum(1 for n in notes("learners.best_of_both") if n == "mle"),
            count("learners.best_of_both")),
        "bounds.dyadic_histogram.self_ns_per_value": per_value("bounds.dyadic_histogram"),
        "bounds.find_bounds.none_share": _ratio(
            sum(1 for n in notes("bounds.find_bounds") if n),
            count("bounds.find_bounds")),
        "analysis.required_n.calls": float(len(setup_required)),
        "analysis.required_n.self_us": _ratio(
            sum(setup_selfs[i] for i in setup_required) / 1e3, len(setup_required)),
        "harness.read_values.ns_per_line": per_value("harness.read_values"),
        "harness.estimate_from_file.self_us": self_us("harness.estimate_from_file"),
        "harness.write_sample.ns_per_value": _ratio(
            total("harness.write_sample", "dur"), total("harness.write_sample", SIZE)),
        "harness.run_experiment.self_share": _ratio(
            total("harness.run_experiment", "self"),
            total("harness.run_experiment", "dur")),
        "cli.main.self_ms": _ratio(total("cli.main", "self") / 1e6, count("cli.main")),
        "trace.overhead_share": overhead_share,
    }
    assert values.keys() == LAYER_METRICS.keys()
    return values
