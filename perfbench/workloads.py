"""Seeded inputs and the ops of the three workloads.

A workload is a fixed cycle of ops made from ``--seed``.  Each op runs the
program (in process, or as a fresh CLI process), renders its output as text
for the byte-identical repeat check, and is checked against ``oracle``
outside the timed interval.  The reason for each input range sits beside it.

The package is imported from ``<checkout>/src`` only; importing this module
fails when that directory is missing.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import ``platformdesign`` from the checkout, refusing any other copy;
    exits with code 2 when the checkout does not hold it."""
    if not (SRC / "platformdesign" / "__init__.py").is_file():
        _refuse(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import platformdesign

    if Path(platformdesign.__file__).resolve().parent != SRC / "platformdesign":
        _refuse(f"imported {platformdesign.__file__}, not the checkout")
    return platformdesign


import_package()

from platformdesign import allocation, correlation, multiplicity, power, studies  # noqa: E402

WORKLOADS = ("cli-calls", "platform-design", "study-grids")
TARGET_POWER = 0.8
ALPHA = 0.05


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PLATFORMDESIGN_SEED", None)
    return env


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *stream])


def arm_correlations(rng: np.random.Generator, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Combination-control and combination-monotherapy correlations per substudy.

    rho_combo_mono ~ U(0.1, 0.7): the range of the design-surface rho levels.
    The (2K+1) arm correlation matrix (control-monotherapy and cross-substudy
    pairs zero) is positive definite iff its Schur complement on the control
    arm, 1 - sum_k rho_cc_k^2 / (1 - rho_cm_k^2), is positive.  So the
    combination-control correlations are drawn to use between 10% and 100%
    of a 90% share of that budget, split evenly over substudies: the feasible
    rho_cc shrinks as K grows.  The README reference pair (0.626, 0.660)
    copied to K=2 gives a complement of -0.39, i.e. no valid trial; the
    program only notices inside ``find_sample_size`` (NotPositiveDefinite),
    after allocation and the threshold solve, so such scenarios are never
    drawn here.
    """
    rho_cm = rng.uniform(0.1, 0.7, K)
    share = rng.uniform(0.1, 1.0, K)
    rho_cc = np.sqrt(share * 0.9 * (1.0 - rho_cm**2) / K)
    arm = np.eye(2 * K + 1)
    for k in range(K):
        mono, combo = 2 * k + 1, 2 * k + 2
        arm[0, combo] = arm[combo, 0] = rho_cc[k]
        arm[mono, combo] = arm[combo, mono] = rho_cm[k]
    if np.linalg.eigvalsh(arm).min() <= 0.0:
        raise AssertionError("arm correlation generator produced a singular matrix")
    return rho_cc, rho_cm


# ---------------------------------------------------------------------------
# platform-design
# ---------------------------------------------------------------------------

# K cycles 2, 4, 6 while the metric alternates, so six ops cover every pair.
PLATFORM_MIX = tuple(((2, 4, 6)[i % 3], ("fwer", "mfwer")[i % 2]) for i in range(6))


@dataclass(frozen=True)
class DesignSpec:
    K: int
    kind: str
    delta: tuple
    synergy: tuple
    rho_cc: tuple
    rho_cm: tuple
    seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}.k{self.K}"

    @property
    def metric(self):
        if self.kind == "fwer":
            return multiplicity.ErrorMetric.fwer(ALPHA)
        return multiplicity.ErrorMetric.mfwer(2, ALPHA)


# Scenarios come from this fixed stream, and the allocation optimizer and
# the threshold solver run at the library's default seed (0, as in the
# README quick start); --seed sets only the Monte Carlo pool of the N*
# search.  The solver costs depend on what is fixed here: one K=4 fwer
# scenario solves in 0.3 s and another in about 4 s, and one K=4 fwer
# threshold took 0.3-3.8 s across five QMC seeds, so fresh scenarios or
# solver seeds per --seed made designs_per_s a measure of the draw.
SCENARIO_STREAM = 0


def design_spec(seed: int, index: int, K: int, kind: str) -> DesignSpec:
    rng = _rng(SCENARIO_STREAM, 1, index)
    # Standardized monotherapy effects between the design-surface default
    # (0.3) and the README reference (0.663): N* stays in the hundreds to low
    # thousands, far from both the N0=20 floor and the 1e6 search cap.
    delta = rng.uniform(0.25, 0.6, K)
    # Synergy around additivity, the span of the design-surface grid
    # (0.7-1.3) and the reference row (1.161).
    synergy = rng.uniform(0.8, 1.4, K)
    rho_cc, rho_cm = arm_correlations(rng, K)
    return DesignSpec(
        K, kind,
        tuple(float(v) for v in delta), tuple(float(v) for v in synergy),
        tuple(float(v) for v in rho_cc), tuple(float(v) for v in rho_cm),
        int(_rng(seed, 1, index).integers(0, 2**31)),
    )


def platform_cycle(seed: int) -> list[DesignSpec]:
    return [design_spec(seed, i, K, kind) for i, (K, kind) in enumerate(PLATFORM_MIX)]


@dataclass(frozen=True)
class DesignOutput:
    ratios: tuple
    z_corr: np.ndarray = field(repr=False, compare=False)
    critical_value: float
    achieved: float
    achieved_stderr: float
    n_star: int
    arm_counts: tuple
    achieved_power: float
    search_trace: tuple

    def render(self) -> str:
        return repr((
            self.ratios, self.z_corr.tolist(), self.critical_value, self.achieved,
            self.achieved_stderr, self.n_star, self.arm_counts, self.achieved_power,
            self.search_trace,
        ))


def run_design(spec: DesignSpec) -> DesignOutput:
    """One full design, composed as the ``design`` subcommand composes it:
    allocation, Z correlation at nominal arm counts, threshold, then N*."""
    scenario = allocation.DesignScenario(
        spec.delta, spec.synergy, 1.0, spec.rho_cc, spec.rho_cm
    )
    alloc = allocation.optimize_allocation(scenario)
    nominal = [1000.0 * r for r in alloc.ratios]
    arms = correlation.PlatformArms(
        nominal[0], tuple(nominal[1::2]), tuple(nominal[2::2]),
        correlation.ArmCorrelations.from_scenario(scenario),
    )
    z_corr = correlation.platform_z_correlation_matrix(arms)
    threshold = multiplicity.platform_threshold(z_corr, spec.metric)
    result = power.find_sample_size(
        scenario, alloc, threshold, TARGET_POWER, seed=spec.seed
    )
    return DesignOutput(
        alloc.ratios, z_corr.entries, threshold.critical_value, threshold.achieved,
        threshold.achieved_stderr, result.n_star, result.arm_counts,
        result.achieved_power, result.search_trace,
    )


def platform_warmup(seed: int) -> None:
    run_design(design_spec(seed, 1_000, 2, "fwer"))


# ---------------------------------------------------------------------------
# study-grids
# ---------------------------------------------------------------------------

# The default grids of ``simulate --study``; only the seed comes from --seed.
STUDIES = (
    ("error_curves", "run_error_curves", "error_curves_grid"),
    ("adjustments", "run_adjustment_comparison", "adjustment_grid"),
    ("thresholds", "run_threshold_curves", "threshold_grid"),
    ("design_surface", "run_design_surface", "design_surface_grid"),
)


@dataclass(frozen=True)
class StudySpec:
    name: str
    seed: int

    @property
    def label(self) -> str:
        return self.name

    def grid(self, **overrides):
        factory = dict((n, g) for n, _, g in STUDIES)[self.name]
        return getattr(studies, factory)(seed=self.seed, **overrides)


def study_cycle(seed: int) -> list[StudySpec]:
    return [StudySpec(name, seed) for name, _, _ in STUDIES]


def run_study(spec: StudySpec, **grid_overrides):
    runner = dict((n, r) for n, r, _ in STUDIES)[spec.name]
    return getattr(studies, runner)(spec.grid(**grid_overrides))


def study_warmup(seed: int) -> None:
    """Every study on a three-point grid with few replications."""
    small = {"start": 0.1, "stop": 0.3, "step": 0.1}
    for spec in study_cycle(seed):
        overrides = dict(small)
        if spec.name in ("error_curves", "adjustments"):
            overrides["replications"] = 2_000
        if spec.name == "design_surface":
            overrides = {"start": 0.9, "stop": 1.1, "step": 0.1, "rho_levels": (0.3,)}
        run_study(spec, **overrides)


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

REFERENCE_ROW = {"delta": 0.663, "synergy": 1.161, "rho_ab_a": 0.626, "rho_ab_b": 0.660}
SCREEN = ("drugA", "drugB", "drugA+drugB")


@dataclass(frozen=True)
class CliSpec:
    label: str
    argv: tuple
    inputs: dict = field(compare=False)


def write_screen_csv(seed: int, path: Path) -> None:
    """A seeded paired-endpoint screen: one response per (model, treatment).

    A and B are drawn independently: the estimator assumes a zero
    control-monotherapy correlation, and with correlated A and B
    ``test_stat_correlation`` silently clips the Z correlation to 1.
    60 models, B's effect 0.8-1.2 SD and synergy 1.1-1.5 keep both
    standardized effects clearly positive, so the trial is not screened out
    and thresholds are computed.  The combination's correlations with A and
    B, 0.2-0.6 each, keep rho_AB_A^2 + rho_AB_B^2 well below 1.
    """
    rng = _rng(seed, 2)
    n_models = 60
    delta_b = rng.uniform(0.8, 1.2)
    synergy = rng.uniform(1.1, 1.5)
    rho_a, rho_b = rng.uniform(0.2, 0.6, 2)
    z_a, z_b, noise = rng.standard_normal((3, n_models))
    y_a = z_a
    y_b = delta_b + z_b
    y_ab = synergy * delta_b + rho_a * z_a + rho_b * z_b + np.sqrt(1 - rho_a**2 - rho_b**2) * noise
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model_id", "treatment", "response"])
        for i in range(n_models):
            for name, values in zip(SCREEN, (y_a, y_b, y_ab)):
                writer.writerow([f"M{i:03d}", name, repr(float(values[i]))])


def cli_cycle(seed: int) -> list[CliSpec]:
    rng = _rng(seed, 3)
    # Test-statistic correlations the error-curve study produces at its
    # allocation shapes run from about 0.1 to 0.8.
    rho = float(rng.uniform(0.1, 0.8))
    # Arm counts of the README's two-substudy example (120 control, 60 per
    # arm), varied by about a third either way.
    n_a = int(rng.integers(80, 161))
    n_b = [int(v) for v in rng.integers(40, 101, 2)]
    n_ab = [int(v) for v in rng.integers(40, 101, 2)]
    rho_cc, rho_cm = arm_correlations(rng, 2)
    csv_path = OUT / f"screen-{seed}.csv"
    write_screen_csv(seed, csv_path)
    s = str(seed)
    nums = lambda values: [repr(float(v)) for v in values]  # noqa: E731
    row = REFERENCE_ROW
    return [
        CliSpec("adjust", ("adjust", "--rho", repr(rho), "--format", "json", "--seed", s),
                {"rho": rho}),
        CliSpec(
            "adjust_mfwer",
            ("adjust", "--metric", "mfwer", "--m", "2", "--k", "2", "--n-a", str(n_a),
             "--n-b", *map(str, n_b), "--n-ab", *map(str, n_ab),
             "--rho-ab-a", *nums(rho_cc), "--rho-ab-b", *nums(rho_cm),
             "--format", "json", "--seed", s),
            {"n_a": n_a, "n_b": n_b, "n_ab": n_ab, "rho_cc": list(rho_cc), "rho_cm": list(rho_cm)},
        ),
        CliSpec(
            "design",
            ("design", "--delta", str(row["delta"]), "--synergy", str(row["synergy"]),
             "--rho-ab-a", str(row["rho_ab_a"]), "--rho-ab-b", str(row["rho_ab_b"]),
             "--metric", "fwer", "--power", str(TARGET_POWER), "--format", "json", "--seed", s),
            dict(row),
        ),
        CliSpec(
            "estimate",
            ("estimate", "--input", str(csv_path), "--drug-a", SCREEN[0], "--drug-b", SCREEN[1],
             "--combo", SCREEN[2], "--with-thresholds", "--seed", s),
            {"path": str(csv_path)},
        ),
    ]


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: str
    stderr: str

    def render(self) -> str:
        return f"{self.returncode}\n{self.stdout}"


def run_cli(spec: CliSpec, command: list[str], env: dict | None = None) -> CliOutput:
    proc = subprocess.run(
        [*command, *spec.argv], capture_output=True, text=True, env=env or child_env(),
        cwd=ROOT, timeout=170,
    )
    return CliOutput(proc.returncode, proc.stdout, proc.stderr)
