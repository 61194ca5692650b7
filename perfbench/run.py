"""Benchmark of the platformdesign engine.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <cli-calls|platform-design|study-grids>
        --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the workload's fixed cycle of ops runs, untraced, in
whole cycles until ``--seconds`` have passed (at least two cycles, so every
op is repeated and checked for byte-identical output).  The last line of
stdout is a JSON object with the end-to-end metrics.  With ``--trace 1`` the
cycle runs once untraced and once under the span recorder; the last line
then carries the per-layer metrics.  Lines before it are a human-readable
table, including the workload-specific metric names and, for the traced
run, the re-anchor baseline.  Per-op timings with the results they produced,
the machine description and (traced) the raw spans are written to
``.perfbench_out/``.  See NOTES.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


@dataclass
class Run:
    index: int
    cycle: int
    wall_s: float
    output: object
    error: str | None
    probe_s: float = 0.0


_PROBE_ARRAY = np.random.default_rng(0).standard_normal((8, 80_000))


def host_probe() -> float:
    """Wall time of a fixed mix of interpreter loops, small numpy calls and
    large vectorized ones (about 40 ms): the host's speed at that moment.
    It runs no program code, so a change to the program cannot move it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(80_000):
        acc += math.sqrt(i + 1.0)
    v = _PROBE_ARRAY[0, :8]
    for _ in range(1_600):
        e = np.exp(v - v.max())
        acc += float(e.sum())
    for row in range(1, 8):
        acc += float(ndtr(_PROBE_ARRAY[row]).sum())
        acc += float((np.ones(row) @ _PROBE_ARRAY[:row]).sum())
    return time.perf_counter() - t0


# The probe's usual time on a shared 2-vCPU virtual machine (Python 3.11,
# numpy 2.4, scipy 1.17).  On such a host the same code runs up to 50%
# slower from one minute to the next, and the probe slows with it; a time t
# measured when the probe took p is reported as t * PROBE_REF_S / p, i.e.
# in seconds of that host at its usual speed.  It cut the spread of designs per second
# across seeds (IQR over median) from 0.17-0.27 to under 0.08.
PROBE_REF_S = 0.025


def adjusted(wall_s: float, probe_s: float) -> float:
    return wall_s * PROBE_REF_S / probe_s


def run_cycles(ops, execute, seconds: float, min_cycles: int = 2) -> list[Run]:
    """Whole cycles of ``ops`` until ``seconds`` have passed.  The host probe
    runs between ops; each op's probe is the mean of the one before and the
    one after it, since the host's speed drifts during an op of seconds."""
    runs: list[Run] = []
    start = time.perf_counter()
    cycle = 0
    before = host_probe()
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                output, error = execute(op), None
            except Exception as exc:  # an op that raises is counted as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            after = host_probe()
            runs.append(Run(index, cycle, wall, output, error, (before + after) / 2))
            before = after
        cycle += 1
    return runs


def setup_samples(workload: str, seed: int, env: dict) -> list[float]:
    """Fresh interpreter start until it reports ready, ``SETUP_SAMPLES`` times."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
    values = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
        _, err = proc.communicate(timeout=170)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {err.strip()[-500:]}")
        values.append(elapsed)
    return values


# ---------------------------------------------------------------------------
# Import breakdown from -X importtime
# ---------------------------------------------------------------------------

IMPORT_TRACKED = {"numpy": "numpy_s", "scipy.special": "scipy_special_s",
                  "scipy.optimize": "scipy_optimize_s"}


def parse_importtime(text: str) -> dict:
    """Cumulative import time per tracked package, minus tracked packages
    imported inside it, plus the total and the package's own self time."""
    found: dict[str, float] = {}
    stack: list[tuple[int, str, float, float]] = []
    total = own = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        cum = float(cum_us) / 1e6
        inner = 0.0
        while stack and stack[-1][0] > depth:
            _, child, child_cum, child_inner = stack.pop()
            inner += child_cum if child in IMPORT_TRACKED else child_inner
        if name in IMPORT_TRACKED and name not in found:
            found[name] = cum - inner
        stack.append((depth, name, cum, inner))
        if name == "platformdesign" or name.startswith("platformdesign."):
            own += float(self_us) / 1e6
        if name == "platformdesign":
            total = cum
    metrics = {"import.total_s": total}
    for module, key in IMPORT_TRACKED.items():
        metrics[f"import.{key}"] = found.get(module, 0.0)
    metrics["import.platformdesign_self_s"] = own
    return metrics


def import_breakdown(env: dict) -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import platformdesign"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Binds a workload's ops to how they run, render and get checked."""

    def __init__(self, name: str, seed: int, wl) -> None:
        self.name, self.seed, self.wl = name, seed, wl
        if name == "platform-design":
            self.ops = wl.platform_cycle(seed)
            self.execute = wl.run_design
            self.warmup = lambda: wl.platform_warmup(seed)
        elif name == "study-grids":
            self.ops = wl.study_cycle(seed)
            self.execute = wl.run_study
            self.warmup = lambda: wl.study_warmup(seed)
        else:
            self.ops = wl.cli_cycle(seed)
            command = [sys.executable, "-m", "platformdesign.cli"]
            self.execute = lambda spec: wl.run_cli(spec, command)
            self.warmup = lambda: None

    def render(self, output) -> str:
        return output.render() if hasattr(output, "render") else output.to_csv()

    def check(self, op, output, oracle):
        import checks  # after the timed interval, so scipy.stats is not in peak_rss_mb

        if self.name == "platform-design":
            return checks.check_design(op, output, oracle)
        if self.name == "study-grids":
            return checks.check_study(op, output, oracle)
        return checks.check_cli(op, output, oracle)


def judge(workload: Workload, runs: list[Run]) -> dict:
    """Repeat and oracle checks; returns failures, quality and provenance."""
    import oracle as orc

    oracle = orc.Oracle(workload.seed)
    first: dict[int, Run] = {}
    problems: dict[int, list[str]] = {}
    for run in runs:
        if run.error is not None:
            problems.setdefault(run.index, []).append(run.error)
            continue
        if run.index not in first:
            first[run.index] = run
        elif workload.render(run.output) != workload.render(first[run.index].output):
            problems.setdefault(run.index, []).append(f"cycle {run.cycle} output differs")
    verdicts = {}
    for index, run in sorted(first.items()):
        verdict = workload.check(workload.ops[index], run.output, oracle)
        verdicts[index] = verdict
        problems.setdefault(index, []).extend(verdict.problems)
    failed = sum(1 for run in runs if problems.get(run.index))
    level_rel = [r for v in verdicts.values() for r in v.level_rel]
    powers = [p for v in verdicts.values() for p in v.powers]
    return {
        "failed": failed,
        "problems": {workload.ops[i].label: p[:5] for i, p in problems.items() if p},
        "level_rel_err_max": max(level_rel) if level_rel else None,
        "thresholds": len(level_rel),
        "outside_own_rule": sum(v.outside_own_rule for v in verdicts.values()),
        "underpowered": sum(p < workload.wl.TARGET_POWER for p in powers),
        "designs": len(powers),
        "records": {workload.ops[i].label: v.record for i, v in verdicts.items()},
    }


def tail(values: list[float]) -> tuple[float | None, int | None]:
    """Highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None, None
    return ordered[rank - 1], int(100 * rank / len(ordered))


def per_kind(workload: Workload, runs: list[Run]) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for run in runs:
        kinds.setdefault(workload.ops[run.index].label, []).append(run.wall_s)
    return {label: statistics.median(v) for label, v in kinds.items()}


def timed(workload: Workload, seconds: float, env: dict) -> tuple[dict, list, dict]:
    setup = setup_samples(workload.name, workload.seed, env)
    workload.warmup()
    runs = run_cycles(workload.ops, workload.execute, seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-calls" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    verdict = judge(workload, runs)
    walls = [run.wall_s for run in runs]
    # Each op counts at the median of its repeats, which are byte-identical
    # work; on six seeds the median of three host-adjusted repeats spread
    # designs per second by 0.04 (IQR over median), their fastest by 0.07.
    per_op: dict[int, list[tuple[float, float]]] = {}
    for run in runs:
        per_op.setdefault(run.index, []).append((adjusted(run.wall_s, run.probe_s), run.wall_s))
    op_adj = [statistics.median(a for a, _ in v) for v in per_op.values()]
    op_raw = [statistics.median(w for _, w in v) for v in per_op.values()]
    probes = [run.probe_s for run in runs]
    # Set-up samples vary by up to 50% while the probe reads steady (process
    # start and imports), so they are adjusted by the run's median probe, not
    # by a probe of their own.
    setup_raw = statistics.median(setup)
    setup_adj = adjusted(setup_raw, statistics.median(probes))
    ops_per_s = len(op_adj) / sum(op_adj)
    ops_per_s_raw = len(op_raw) / sum(op_raw)
    metrics = {
        "setup_s": (setup_adj, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    kinds = per_kind(workload, runs)
    table = [
        ("setup_s", setup_adj, "s", f"median of {len(setup)}, host-adjusted"),
        ("setup_s.raw", setup_raw, "s", "median of the wall times"),
        ("ops_per_s", ops_per_s, "1/s", "host-adjusted, median repeat of each op"),
        ("ops_per_s.raw", ops_per_s_raw, "1/s", "wall time, median repeat of each op"),
        ("host_probe_s", statistics.median(probes), "s",
         f"median; {min(probes):.4f}-{max(probes):.4f}; reference {PROBE_REF_S}"),
    ]
    if workload.name == "cli-calls":
        value, pct = tail(walls)
        table += [
            ("cli_call_p50_s", statistics.median(walls), "s", f"n={len(walls)}"),
            ("cli_call_tail_s", value, "s",
             f"p{pct} of n={len(walls)}" if pct else f"undefined: n={len(walls)} <= 10"),
        ]
        table += [(f"cli_call_p50_s.{k}", v, "s", "") for k, v in kinds.items()]
    elif workload.name == "platform-design":
        table.append(("designs_per_s", ops_per_s, "1/s",
                      f"{len(walls)} designs, mix {'/'.join(op.label for op in workload.ops)}"))
        table += [(f"design_s.{k}", v, "s", "median") for k, v in kinds.items()]
    else:
        table += [(f"study_s.{k}", v, "s", "median over cycles") for k, v in kinds.items()]
    table.append(("failed_share", verdict["failed"] / len(runs), "ratio",
                  f"{verdict['failed']}/{len(runs)}"))
    table.append(("level_rel_err_max", verdict["level_rel_err_max"], "ratio",
                  f"{verdict['outside_own_rule']}/{verdict['thresholds']} thresholds outside "
                  "the code's own max(1e-4, 3 x stderr) rule"))
    if verdict["designs"]:
        table.append(("underpowered_share", verdict["underpowered"] / verdict["designs"], "ratio",
                      f"{verdict['underpowered']}/{verdict['designs']} designs"))
    table.append(("peak_rss_mb", peak_rss_mb, "MB", ""))
    detail = {
        "setup_samples_s": setup,
        "ops": [
            {"label": workload.ops[r.index].label, "cycle": r.cycle, "wall_s": r.wall_s,
             "probe_s": r.probe_s, "error": r.error}
            for r in runs
        ],
        "verdict": verdict,
    }
    return metrics, table, {"attempted": len(runs), **detail}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

# The re-anchor baseline recorded in ROADMAP.md: (value or (low, high), what
# [, the only workload it describes]).
BASELINE = {
    "import.total_s": ((0.7, 1.1), "import platformdesign"),
    "cli_call_s.adjust": (1.0, "CLI adjust call"),
    "allocation.optimize_allocation.p50_s.k1": (0.080, "optimize_allocation K=1"),
    "allocation.optimize_allocation.p50_s.k2": (0.330, "optimize_allocation K=2"),
    "power.find_sample_size.p50_s": (0.011, "find_sample_size (n_sim=1e4)"),
    "multiplicity.generalized_dunnett_threshold.p50_s": (0.002, "bivariate threshold"),
    "multiplicity.platform_threshold.p50_s.fwer.k2": (0.10, "platform_threshold fwer K=2"),
    "multiplicity.platform_threshold.p50_s.fwer.k4": ((0.6, 0.8), "platform_threshold fwer K=4"),
    "multiplicity.platform_threshold.p50_s.fwer.k6": (1.9, "platform_threshold fwer K=6"),
    "multiplicity.objective_evals_per_solve": (32, "QMC calls per threshold solve"),
    "study_s.error_curves": (7.5, "simulate error-curves"),
    "study_s.adjustments": (4.5, "simulate adjustments"),
    "study_s.design_surface": (4.1, "simulate design-surface"),
    "allocation.nfev": (72_000, "design-surface objective calls", "study-grids"),
}

COUNT_SUFFIXES = ("calls", "nfev", "points", "draws", "evals_per_search",
                  "objective_evals_per_solve")
RATIO_SUFFIXES = ("_ratio", "_share", "level_rel_err_max")

# The per-layer metrics in the JSON line of a traced run are BENCHMARK.json's
# ``per_layer`` list: every count and ratio, and the self times of the layers
# all three workloads exercise.  A count may be 0 on a workload that never
# reaches its layer: counts repeat exactly on every run whatever their value.
# A self time of such a layer would read exactly 0 s on every run, which is
# not a measurement; those times are printed in the table only.
def json_per_layer() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def unit_of(name: str) -> str:
    if name.split(".")[-1] in COUNT_SUFFIXES:
        return "count"
    if name.endswith(RATIO_SUFFIXES):
        return "ratio"
    return "s"


def traced(workload: Workload, env: dict) -> tuple[dict, list, dict]:
    import tracing

    workload.warmup()
    plain = run_cycles(workload.ops, workload.execute, 0.0, min_cycles=1)
    span_lists: list[list[dict]] = []
    process_starts: list[float] = []
    main_s: dict[str, float] = {}
    if workload.name == "cli-calls":
        spans_dir = workload.wl.OUT / f"spans-cli-{workload.seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced_runs = []
        before = host_probe()
        for index, op in enumerate(workload.ops):
            path = spans_dir / f"{index}-{op.label}.json"
            child_env = dict(env, PERFBENCH_SPAWN_T=repr(time.monotonic()))
            t0 = time.perf_counter()
            output = workload.wl.run_cli(
                op, [sys.executable, str(HERE / "cli_child.py"), str(path)], child_env
            )
            wall = time.perf_counter() - t0
            after = host_probe()
            error = None
            try:
                with open(path, encoding="utf-8") as handle:
                    child = json.load(handle)
                for span in child["spans"]:
                    span["op"] = index
                span_lists.append(child["spans"])
                process_starts.append(child["process_start_s"])
                main_s[op.label] = child["main_s"]
            except (OSError, ValueError, KeyError) as exc:
                error = f"no spans from traced call: {exc}"
            traced_runs.append(Run(index, 1, wall, output, error, (before + after) / 2))
            before = after
    else:
        recorder = tracing.SpanRecorder()
        recorder.install()
        try:
            traced_runs = []
            before = host_probe()
            for index, op in enumerate(workload.ops):
                recorder.op = index
                t0 = time.perf_counter()
                try:
                    output, error = workload.execute(op), None
                except Exception as exc:  # counted as a failed op
                    output, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                after = host_probe()
                traced_runs.append(Run(index, 1, wall, output, error, (before + after) / 2))
                before = after
        finally:
            recorder.uninstall()
        span_lists.append(recorder.spans)
    plain_s = sum(adjusted(r.wall_s, r.probe_s) for r in plain)
    traced_s = sum(adjusted(r.wall_s, r.probe_s) for r in traced_runs)
    runs = plain + traced_runs
    verdict = judge(workload, runs)
    layers, inclusive = tracing.aggregate(span_lists)
    metrics = dict(import_breakdown(env))
    metrics["cli.process_start_s"] = statistics.median(process_starts or [0.0])
    for label in ("adjust", "adjust_mfwer", "design", "estimate"):
        metrics[f"cli.main_s.{label}"] = main_s.get(label, 0.0)
    metrics.update(layers)
    metrics["multiplicity.level_rel_err_max"] = verdict["level_rel_err_max"] or 0.0
    metrics["power.underpowered_share"] = (
        verdict["underpowered"] / verdict["designs"] if verdict["designs"] else 0.0
    )
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    compare = dict(metrics)
    for name in ("power.find_sample_size", "multiplicity.generalized_dunnett_threshold"):
        compare[f"{name}.p50_s"] = inclusive.get(name, 0.0)
    for run in plain:
        label = workload.ops[run.index].label
        key = f"cli_call_s.{label}" if workload.name == "cli-calls" else f"study_s.{label}"
        compare[key] = run.wall_s
    table = [(name, value, unit_of(name), "") for name, value in metrics.items()]
    table += baseline_rows(compare, workload.name)
    detail = {
        "attempted": len(runs),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "verdict": verdict,
        "per_layer": metrics,
        "spans": span_lists,
    }
    return {k: (metrics[k], unit) for k, unit in json_per_layer().items()}, table, detail


def baseline_rows(measured: dict, workload: str) -> list:
    rows = []
    for name, (base, what, *only) in BASELINE.items():
        value = measured.get(name)
        if not value or (only and workload not in only):
            continue
        lo, hi = base if isinstance(base, tuple) else (base, base)
        if lo <= value <= hi:
            gap = 0.0
        else:
            gap = (value - hi) / hi if value > hi else (value - lo) / lo
        rows.append((f"baseline:{name}", value, unit_of(name),
                     f"baseline {base} ({what}); gap {gap:+.0%}"))
    return rows


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads as wl  # exits with code 2 unless the checkout holds the package

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    env = wl.child_env()
    workload = Workload(args.workload, args.seed, wl)
    if args.trace:
        metrics, table, detail = traced(workload, env)
    else:
        metrics, table, detail = timed(workload, args.seconds, env)
    verdict = detail["verdict"]

    wl.OUT.mkdir(parents=True, exist_ok=True)
    report = wl.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "machine": machine(),
                   "metrics": {k: v for k, (v, _) in metrics.items()}, **detail},
                  handle, indent=1, default=str)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} -> {report.name}")
    for name, value, unit, note in table:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>12} {unit:<6} {note}")
    for label, problems in verdict["problems"].items():
        for problem in problems:
            print(f"  FAILED {label}: {problem}")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
