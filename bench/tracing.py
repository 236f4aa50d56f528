"""Span tracing of the ``vlac`` layers, installed from outside the package.

A :class:`Tracer` replaces each traced public function at every module-global
name of the six ``vlac`` modules that refers to it (``vlac.cli.train_hp`` as
well as ``vlac.aggregation.train_hp``), because callers look functions up
there. A wrapper records one span per call and passes the return value or
the exception through unchanged. Spans stay in memory; :func:`layer_metrics`
turns them into per-layer calls, self time, failures and work counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np

TRACED = {
    "ingestion": ("load_features", "load_manifest", "load_query_manifest",
                  "perturb"),
    "core_math": ("kmeans_fit", "pca_fit", "pca_project", "nearest_centers"),
    "aggregation": ("train_vlad", "train_vlac", "train_hp", "fit_clfcs",
                    "compute_lfcs", "split_gofs", "vlad_encode", "vlac_encode",
                    "hp_encode", "encode_video", "save_model", "load_model"),
    "search": ("retrieve", "aligned_similarity", "load_store", "write_store"),
    "evaluation": ("average_precision", "pr_curve", "stability_bases"),
    "cli": ("cmd_train", "cmd_encode", "cmd_search", "cmd_evaluate",
            "cmd_stability"),
}

# Work counts: computed from arguments and return values, so they repeat
# exactly for one seed. Each traced name maps to (counter, unit, compute),
# where compute takes the call's bound arguments by name and its result.


def _rows_cols(points):
    arr = np.asarray(points)
    return (arr.shape[0], arr.shape[1]) if arr.ndim == 2 else (0, 0)


def _kmeans_flops(a, result):
    # one (n, k) distance GEMM per Lloyd iteration: 2 * n * k * dim
    n, dim = _rows_cols(a["points"])
    return 2 * n * int(a["k"]) * dim * len(result.inertia_history)


def _pca_wide(a, result):
    n, dim = _rows_cols(a["rows"])
    return int(n < dim)


def _pca_bytes(a, result):
    n, dim = _rows_cols(a["rows"])
    return 8 * n * dim


def _shifts(a):
    g1, g2 = sorted((a["query"].length, a["target"].length))
    return g2 - g1 + 1


def _alignment_flops(a, result):
    return _shifts(a) * 2 * min(a["query"].length, a["target"].length) * a["query"].d


def _file_bytes(a, result):
    return os.path.getsize(a["path"])


COUNTERS = {
    "core_math.kmeans_fit": (
        ("iterations", "count", lambda a, r: len(r.inertia_history)),
        ("distance_flops", "flop", _kmeans_flops)),
    "core_math.pca_fit": (
        ("wide_calls", "count", _pca_wide),
        ("input_bytes", "B", _pca_bytes)),
    "aggregation.vlad_encode": (
        ("points", "count", lambda a, r: _rows_cols(a["features"])[0]),),
    "aggregation.encode_video": (("gofs", "count", lambda a, r: len(r)),),
    "search.aligned_similarity": (
        ("shifts", "count", lambda a, r: _shifts(a)),
        ("flops", "flop", _alignment_flops)),
    "search.load_store": (("bytes", "B", _file_bytes),),
    "ingestion.load_features": (("bytes", "B", _file_bytes),),
    "aggregation.save_model": (("bytes", "B", _file_bytes),),
}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: int
    name: str
    start: float
    end: float = 0.0
    failed: bool = False


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.trace_id = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.trace_id, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, *, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def wrap(self, name: str, fn):
        """A function that records a span around ``fn`` and counts its work."""
        counters = COUNTERS.get(name, ())
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span)
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, _, compute in counters:
                    self.count(f"{name}.{counter}", compute(bound, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each module-global name bound to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"vlac.{m}") for m in TRACED]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"vlac.{module_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for module_name, names in TRACED.items():
        for fn_name in names:
            units[f"{module_name}.{fn_name}.calls"] = "count"
            units[f"{module_name}.{fn_name}.self_s"] = "s"
        units[f"{module_name}.failed"] = "count"
    for name, counters in COUNTERS.items():
        for counter, unit, _ in counters:
            units[f"{name}.{counter}"] = unit
    units["search.retrieve.p50_ms"] = "ms"
    units["search.retrieve.p90_ms"] = "ms"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer calls, self time, failures, work counts and retrieve latency.

    Spans of names outside :data:`TRACED` (the benchmark's own per-command
    root spans) only shorten their children's parents' self time. The
    ``trace.overhead_*`` entries need an untraced run and are left out.
    """
    own = self_times(spans)
    out: dict[str, float] = dict.fromkeys(metric_units(), 0)
    del out["trace.overhead_s"], out["trace.overhead_ratio"]
    retrieve_ms = []
    for span in spans:
        if f"{span.name}.calls" not in out:
            continue
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own[span.span_id]
        out[f"{span.name.split('.')[0]}.failed"] += int(span.failed)
        if span.name == "search.retrieve":
            retrieve_ms.append(1000.0 * (span.end - span.start))
    out.update(counts)
    if retrieve_ms:
        out["search.retrieve.p50_ms"] = float(np.percentile(retrieve_ms, 50))
        out["search.retrieve.p90_ms"] = float(np.percentile(retrieve_ms, 90))
    out["trace.spans"] = len(spans)
    return out
