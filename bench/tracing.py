"""Spans around the calls into each distsim module, and the per-layer metrics.

The library imports functions by name (``from .gaussian import bc_mvn``), so
a wrapper must replace the name the *caller* looks up: wrapping
``distsim.gaussian.bc_mvn`` alone would miss the pipeline's calls. ``TARGETS``
lists every replaced name; :meth:`Tracer.installed` swaps them in and
restores the originals on exit, so untraced ops run the library untouched.

A span is ``(id, name, start, end, parent, op, thread, pair)``. ``parent``
is the innermost open span on the same thread, or the op's root span when
the call starts a pool thread's work. Self time is a span's duration minus
the duration of its children on the same thread. Spans are kept in memory
and written out once, by :meth:`Tracer.dump`.

``core`` and ``divergence`` have no public call on these paths: constructor
validation and ``DivergenceValue`` land in their callers' self time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import statistics
import threading
import time
import warnings
from collections import defaultdict

import numpy as np

#: (module, attribute looked up by the caller, span name, is a pair distance)
TARGETS = (
    ("distsim.cli", "_cmd_compare", "cli.compare", False),
    ("distsim.cli", "load_group", "pipeline.load_group", False),
    ("distsim.cli", "compare_groups", "pipeline.compare_groups", False),
    ("distsim.cli", "verify_stein", "stein.verify_stein", False),
    ("distsim.cli", "verify_distance_covariance", "stein.verify_distance_covariance", False),
    ("distsim.cli", "price_asset", "stein.price_asset", False),
    ("distsim.pipeline", "compare_groups", "pipeline.compare_groups", False),
    ("distsim.pipeline", "estimate_mvn", "pipeline.estimate_mvn", False),
    ("distsim.pipeline", "estimate_truncated_uni", "pipeline.estimate_truncated_uni", False),
    ("distsim.pipeline", "pca_reduce", "reduce.pca_reduce", False),
    ("distsim.pipeline", "jl_project", "reduce.jl_project", False),
    ("distsim.pipeline", "moment_match", "approx.moment_match", False),
    ("distsim.pipeline", "bc_mvn", "gaussian.bc_mvn", True),
    ("distsim.pipeline", "bc_truncated_mvn", "gaussian.bc_truncated_mvn", True),
    # private, but it is the discrete fit's pair distance the pipeline calls
    ("distsim.pipeline", "_discrete_distance", "pipeline.discrete_distance", True),
    ("distsim.gaussian", "bc_mvn", "gaussian.bc_mvn", False),
    ("distsim.gaussian", "truncated_mvn_terms", "gaussian.truncated_mvn_terms", False),
    ("distsim.gaussian", "mvn_rect_prob", "quadrature.mvn_rect_prob", False),
    ("distsim.approx", "integrate_1d", "quadrature.integrate_1d", False),
    ("distsim.approx", "nln_density", "approx.nln_density", False),
    ("distsim.approx", "nln_sum_density", "approx.nln_sum_density", False),
    ("distsim.approx", "moment_match", "approx.moment_match", False),
    ("distsim.stein", "integrate_1d", "quadrature.integrate_1d", False),
)

#: span names whose arguments and results the oracle checks read.
CAPTURED = ("gaussian.bc_mvn", "quadrature.mvn_rect_prob",
            "gaussian.truncated_mvn_terms", "pipeline.discrete_distance")

FALLBACK_MESSAGE = "truncated-normal moment solve failed"

#: metric -> unit, in BENCHMARK.json order; values are per traced op.
LAYER_METRICS = {
    "cli.compare.self_s": "s",
    "pipeline.load_group.calls": "count",
    "pipeline.load_group.s": "s",
    "pipeline.compare_groups.self_s": "s",
    "pipeline.estimate_mvn.calls": "count",
    "pipeline.estimate_mvn.s": "s",
    "pipeline.estimate_truncated_uni.calls": "count",
    "pipeline.estimate_truncated_uni.s": "s",
    "pipeline.estimate_truncated_uni.fallbacks": "count",
    "pipeline.pair_parallel_eff": "ratio",
    "reduce.pca_reduce.calls": "count",
    "reduce.pca_reduce.s": "s",
    "reduce.jl_project.calls": "count",
    "reduce.jl_project.s": "s",
    "gaussian.bc_mvn.calls": "count",
    "gaussian.bc_mvn.s": "s",
    "gaussian.bc_truncated_mvn.calls": "count",
    "gaussian.bc_truncated_mvn.self_s": "s",
    "quadrature.mvn_rect_prob.calls": "count",
    "quadrature.mvn_rect_prob.s": "s",
    "quadrature.mvn_rect_prob.points": "count",
    "quadrature.mvn_rect_prob.repeat_share": "ratio",
    "quadrature.mvn_rect_prob.mc_halfwidth": "nats",
    "quadrature.integrate_1d.calls": "count",
    "quadrature.integrate_1d.s": "s",
    "quadrature.integrate_1d.evals": "count",
    "approx.moment_match.calls": "count",
    "approx.moment_match.s": "s",
    "approx.nln_sum_density.s": "s",
    "approx.nln_density.calls": "count",
    "approx.nln_density.s": "s",
    "stein.verify_stein.s": "s",
    "stein.verify_distance_covariance.s": "s",
    "stein.price_asset.s": "s",
    "trace.overhead": "ratio",
}


def _box_key(dist, lower, upper, cfg) -> tuple:
    arrays = (dist.mu, dist.cov, lower, upper)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays) + (repr(cfg),)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.extra: dict[int, dict] = {}
        self.captures: dict[str, list] = defaultdict(list)
        self.fallbacks: dict[int, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._root = None
        self._seen_boxes: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, pair: bool = False):
        """A span around the enclosed block; yields its id."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._op,
                               threading.get_ident(), pair))

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; pool-thread spans without a parent attach here."""
        self._op = op_id
        with self._lock:
            self._seen_boxes = set()
        try:
            with self.span("op") as sid:
                self._root = sid
                yield
        finally:
            self._root = None
            self._op = None

    def _wrap(self, fn, name: str, pair: bool):
        captured = name in CAPTURED

        def traced(*args, **kwargs):
            with self.span(name, pair) as sid:
                result = fn(*args, **kwargs)
            self._after(name, sid, args, kwargs, result, captured)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name, sid, args, kwargs, result, captured):
        if name == "quadrature.mvn_rect_prob":
            dist, lower, upper = args[:3]
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
            key = _box_key(dist, lower, upper, cfg)
            with self._lock:
                repeat = key in self._seen_boxes
                self._seen_boxes.add(key)
            self.extra[sid] = {"points": result.evaluations, "repeat": repeat}
        elif name == "quadrature.integrate_1d":
            self.extra[sid] = {"evals": result.evaluations}
        elif name == "pipeline.compare_groups":
            self.extra[sid] = {"threads": int(os.environ.get("DISTSIM_THREADS", "1"))}
        elif name == "gaussian.truncated_mvn_terms" and result is not None:
            self.extra[sid] = {"mc_halfwidth": result.combined_error}
        if captured:
            parent = self._stack()[-1] if self._stack() else self._root
            self.captures[name].append(
                {"op": self._op, "sid": sid, "parent": parent,
                 "args": args, "kwargs": kwargs, "result": result})

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if FALLBACK_MESSAGE in str(message):
            with self._lock:
                self.fallbacks[self._op] += 1
        self._showwarning(message, category, filename, lineno, file, line)

    @contextlib.contextmanager
    def installed(self):
        """Swap every target name for its traced wrapper; restore on exit."""
        originals = []
        try:
            for module_name, attr, name, pair in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, pair))
            with warnings.catch_warnings():
                # "always": the default filter would report a repeat only once
                warnings.filterwarnings("always", message=FALLBACK_MESSAGE)
                self._showwarning = warnings.showwarning
                warnings.showwarning = self._on_warning
                yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus its same-thread children's durations."""
        by_id = {s[0]: s for s in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _, tid, _ in self.spans:
            if parent in by_id and by_id[parent][6] == tid:
                covered[parent] += end - start
        return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in self.spans}

    def layer_metrics(self, traced_ops: int, untraced_s: list[float],
                      traced_s: list[float]) -> dict:
        """Every ``LAYER_METRICS`` value, averaged per traced op."""
        n = max(traced_ops, 1)
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        sums: dict[str, float] = defaultdict(float)
        own = self.self_times()
        pair_s = thread_s = 0.0
        halfwidths = []
        for sid, name, start, end, _, _, _, pair in self.spans:
            calls[name] += 1
            secs[name] += end - start
            self_s[name] += own[sid]
            if pair:
                pair_s += end - start
            for key, value in self.extra.get(sid, {}).items():
                if key == "mc_halfwidth":
                    halfwidths.append(value)
                elif key == "threads":
                    thread_s += (end - start) * value
                else:
                    sums[f"{name}.{key}"] += value
        rect_calls = calls["quadrature.mvn_rect_prob"]
        values = {
            "cli.compare.self_s": self_s["cli.compare"] / n,
            "pipeline.compare_groups.self_s": self_s["pipeline.compare_groups"] / n,
            "pipeline.estimate_truncated_uni.fallbacks": sum(self.fallbacks.values()) / n,
            "pipeline.pair_parallel_eff": pair_s / thread_s if thread_s > 0 else 0.0,
            "gaussian.bc_truncated_mvn.self_s": self_s["gaussian.bc_truncated_mvn"] / n,
            "quadrature.mvn_rect_prob.points": sums["quadrature.mvn_rect_prob.points"] / n,
            "quadrature.mvn_rect_prob.repeat_share": (
                sums["quadrature.mvn_rect_prob.repeat"] / rect_calls if rect_calls else 0.0),
            "quadrature.mvn_rect_prob.mc_halfwidth": (
                statistics.fmean(halfwidths) if halfwidths else 0.0),
            "quadrature.integrate_1d.evals": sums["quadrature.integrate_1d.evals"] / n,
            "trace.overhead": (statistics.median(traced_s) / statistics.median(untraced_s)
                               if traced_s and untraced_s else 0.0),
        }
        for metric in LAYER_METRICS:
            if metric in values:
                continue
            name, _, kind = metric.rpartition(".")
            values[metric] = calls[name] / n if kind == "calls" else secs[name] / n
        return values

    def dump(self, path) -> None:
        """Write every span as one JSON file, times in seconds from the first."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, name, round(start - t0, 7), round(end - t0, 7), parent, op,
                 tid, pair] for sid, name, start, end, parent, op, tid, pair
                in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "op",
                                  "thread", "pair"], "spans": rows}, fh)
