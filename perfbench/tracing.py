"""In-memory span recorder that wraps the package's public functions.

Every public function of every ``platformdesign`` module is replaced, in
every package module that bound its name (``studies.empirical_error_rates``,
``multiplicity.mvn_rectangle``, ...), by a wrapper that records one span:
name, start, end, parent span and the id of the benchmark op that caused it.
No program source is edited; ``uninstall`` puts the originals back.

``scipy.optimize.minimize`` as bound in ``allocation`` is wrapped as a
counter, not a span, so its evaluation counts attach to the enclosing
``allocation.optimize_allocation`` span and that span's self time still
covers the Nelder-Mead work.

Only the standard library is imported here, so a child process can load
this module before it imports the package it measures.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
from time import perf_counter

PACKAGE = "platformdesign"


def _describe_mvn_rectangle(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"dim": spec.dim, "points": result.n_points}


def _describe_mvn_sample(args, kwargs, result):
    return {"draws": int(result.shape[0]), "dim": int(result.shape[1])}


def _describe_platform_threshold(args, kwargs, result):
    return {"kind": result.metric.kind, "K": result.z_correlation.dim // 2}


def _describe_optimize_allocation(args, kwargs, result):
    return {"K": result.K}


def _describe_find_sample_size(args, kwargs, result):
    return {"evals": len(result.search_trace)}


# Extra attributes recorded on the spans that feed count metrics.
_DESCRIBE = {
    "mvnorm.mvn_rectangle": _describe_mvn_rectangle,
    "mvnorm.mvn_sample": _describe_mvn_sample,
    "multiplicity.platform_threshold": _describe_platform_threshold,
    "allocation.optimize_allocation": _describe_optimize_allocation,
    "power.find_sample_size": _describe_find_sample_size,
}


class SpanRecorder:
    """Collects spans in memory; ``spans`` is a list of dicts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    def _span(self, name, fn, describe):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": recorder._stack[-1] if recorder._stack else None,
                "op": recorder.op,
                "start": perf_counter() - recorder._origin,
            }
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter() - recorder._origin
                recorder._stack.pop()
            if describe is not None:
                span["attrs"] = describe(args, kwargs, result)
            return result

        return traced

    def _nfev_counter(self, fn):
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder._stack:
                owner = recorder.spans[recorder._stack[-1]]
                owner.setdefault("minimize", []).append(
                    [int(result.nfev), float(result.fun), bool(result.success)]
                )
            return result

        return counted

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _BlockSpan(self, name)

    def install(self) -> None:
        modules = _package_modules()
        replacements: dict[int, object] = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    replacements[id(obj)] = self._span(name, obj, _DESCRIBE.get(name))
        allocation = modules.get("allocation")
        if allocation is not None and hasattr(allocation, "minimize"):
            replacements[id(allocation.minimize)] = self._nfev_counter(allocation.minimize)
        for module in (sys.modules[PACKAGE], *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


class _BlockSpan:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        rec = self.recorder
        self.span = {
            "name": self.name,
            "parent": rec._stack[-1] if rec._stack else None,
            "op": rec.op,
            "start": perf_counter() - rec._origin,
        }
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span["end"] = perf_counter() - self.recorder._origin
        self.recorder._stack.pop()
        return False


def _package_modules() -> dict:
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and module is not None
    }


# ---------------------------------------------------------------------------
# Aggregation: spans -> per-layer metrics
# ---------------------------------------------------------------------------


class _Layer:
    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def aggregate(span_lists: list[list[dict]]) -> tuple[dict, dict]:
    """Per-layer metrics from one or more span lists, and the median
    inclusive duration per call of every span name.

    Each list is self-contained: ``parent`` indexes into the same list.
    Self time is a span's duration minus the durations of its direct
    children; ``*.p50_s`` is the median inclusive duration per call.
    """
    layers: dict[str, _Layer] = {}
    by_k: dict[str, list[float]] = {}
    rect_self_by_dim: dict[int, float] = {}
    points = draws = evals = 0
    nfev_total = nfev_useful = 0
    threshold_solves_with_evals = threshold_evals = 0

    for spans in span_lists:
        child_time = [0.0] * len(spans)
        rect_children = [0] * len(spans)
        for span in spans:
            parent = span["parent"]
            if parent is not None:
                child_time[parent] += span["end"] - span["start"]
                if span["name"] == "mvnorm.mvn_rectangle":
                    rect_children[parent] += 1
        for idx, span in enumerate(spans):
            name = span["name"]
            duration = span["end"] - span["start"]
            own = duration - child_time[idx]
            layer = layers.setdefault(name, _Layer())
            layer.calls += 1
            layer.self_s += own
            layer.durations.append(duration)
            attrs = span.get("attrs", {})
            if name == "mvnorm.mvn_rectangle" and attrs:
                points += attrs["points"]
                rect_self_by_dim[attrs["dim"]] = rect_self_by_dim.get(attrs["dim"], 0.0) + own
            elif name == "mvnorm.mvn_sample" and attrs:
                draws += attrs["draws"]
            elif name == "power.find_sample_size" and attrs:
                evals += attrs["evals"]
            elif name == "allocation.optimize_allocation" and attrs:
                by_k.setdefault(f"k{attrs['K']}", []).append(duration)
            elif name == "multiplicity.platform_threshold":
                if attrs:
                    key = f"{attrs['kind']}.k{attrs['K']}"
                    by_k.setdefault(key, []).append(duration)
                if rect_children[idx]:
                    threshold_solves_with_evals += 1
                    threshold_evals += rect_children[idx]
            starts = span.get("minimize")
            if starts:
                nfev_total += sum(s[0] for s in starts)
                winner = _winning_start(starts)
                if winner is not None:
                    nfev_useful += winner[0]

    def calls(name):
        return layers[name].calls if name in layers else 0

    def self_s(name):
        return layers[name].self_s if name in layers else 0.0

    m: dict[str, float] = {}
    m["allocation.optimize_allocation.calls"] = calls("allocation.optimize_allocation")
    m["allocation.optimize_allocation.self_s"] = self_s("allocation.optimize_allocation")
    for k in (1, 2, 4, 6):
        m[f"allocation.optimize_allocation.p50_s.k{k}"] = _median(by_k.get(f"k{k}", []))
    m["allocation.nfev"] = nfev_total
    m["allocation.useful_nfev_ratio"] = nfev_useful / nfev_total if nfev_total else 0.0
    m["multiplicity.platform_threshold.calls"] = calls("multiplicity.platform_threshold")
    m["multiplicity.platform_threshold.self_s"] = self_s("multiplicity.platform_threshold")
    for kind in ("fwer", "mfwer"):
        for k in (2, 4, 6):
            m[f"multiplicity.platform_threshold.p50_s.{kind}.k{k}"] = _median(
                by_k.get(f"{kind}.k{k}", [])
            )
    m["multiplicity.objective_evals_per_solve"] = (
        threshold_evals / threshold_solves_with_evals if threshold_solves_with_evals else 0.0
    )
    for name in ("generalized_dunnett_threshold", "empirical_error_rates"):
        m[f"multiplicity.{name}.calls"] = calls(f"multiplicity.{name}")
        m[f"multiplicity.{name}.self_s"] = self_s(f"multiplicity.{name}")
    m["mvnorm.mvn_rectangle.calls"] = calls("mvnorm.mvn_rectangle")
    m["mvnorm.mvn_rectangle.self_s"] = self_s("mvnorm.mvn_rectangle")
    m["mvnorm.mvn_rectangle.points"] = points
    for dim in (4, 8, 12):
        m[f"mvnorm.mvn_rectangle.self_s.dim{dim}"] = rect_self_by_dim.get(dim, 0.0)
    m["mvnorm.bvn_rectangle.calls"] = calls("mvnorm.bvn_rectangle")
    m["mvnorm.bvn_rectangle.self_s"] = self_s("mvnorm.bvn_rectangle")
    m["mvnorm.sample.calls"] = calls("mvnorm.mvn_sample")
    m["mvnorm.sample.draws"] = draws
    m["mvnorm.sample.self_s"] = self_s("mvnorm.mvn_sample")
    m["mvnorm.cholesky.calls"] = calls("mvnorm.cholesky")
    m["mvnorm.cholesky.self_s"] = self_s("mvnorm.cholesky")
    m["power.find_sample_size.calls"] = calls("power.find_sample_size")
    m["power.find_sample_size.self_s"] = self_s("power.find_sample_size")
    searches = calls("power.find_sample_size")
    m["power.evals_per_search"] = evals / searches if searches else 0.0
    for name in ("platform_z_correlation_matrix", "test_stat_correlation", "arm_mean_covariance"):
        m[f"correlation.{name}.calls"] = calls(f"correlation.{name}")
        m[f"correlation.{name}.self_s"] = self_s(f"correlation.{name}")
    for name in ("ingest_csv", "estimate_trial", "table1_pipeline"):
        m[f"estimation.{name}.self_s"] = self_s(f"estimation.{name}")
    for name in (
        "run_error_curves",
        "run_adjustment_comparison",
        "run_threshold_curves",
        "run_design_surface",
    ):
        m[f"studies.{name}.self_s"] = self_s(f"studies.{name}")
    return m, {name: _median(layer.durations) for name, layer in layers.items()}


def _winning_start(starts):
    """The start ``optimize_allocation`` keeps: lowest finite objective among
    successful runs, ties to the earliest start."""
    best = None
    for start in starts:
        nfev, fun, success = start
        if not success or not math.isfinite(fun):
            continue
        if best is None or fun < best[1]:
            best = start
    return best
