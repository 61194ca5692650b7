"""The package surface: each public name resolves on first use to its home
module's object, and ``import platformdesign`` alone loads no module."""

import importlib
import json
import re
from pathlib import Path

import pytest
from conftest import FIXTURE_INDEPENDENT_CSV, run_python

import platformdesign

_MODULES = ("allocation", "correlation", "estimation", "multiplicity", "mvnorm", "power", "studies")


def test_each_public_name_is_its_home_modules_object():
    homes = [importlib.import_module(f"platformdesign.{name}") for name in _MODULES]
    assert len(set(platformdesign.__all__)) == len(platformdesign.__all__) == 29
    for name in platformdesign.__all__:
        value = getattr(platformdesign, name)
        if name == "errors":
            assert value is importlib.import_module("platformdesign.errors")
            continue
        (home,) = [module for module in homes if name in module.__all__]
        assert value is getattr(home, name), name
    assert homes[_MODULES.index("mvnorm")].__all__ == ["CorrelationMatrix"]


def test_dir_lists_every_public_name():
    assert set(platformdesign.__all__) <= set(dir(platformdesign))


@pytest.mark.parametrize("name", [
    "no_such_name", "DEFAULT_TARGETS", "_HOME_MODULE", "pooled_sd", "marginal_power_oracle",
    "QmcLattice", "std_normal_cdf", "std_normal_quantile",
])
def test_an_unknown_name_is_an_attribute_error(name):
    # DEFAULT_TARGETS is public in multiplicity, not in the package; of the
    # last five, pooled_sd is deleted and the others are private
    with pytest.raises(AttributeError, match=f"module 'platformdesign' has no attribute '{name}'"):
        getattr(platformdesign, name)
    assert not hasattr(platformdesign, name)


def test_the_console_script_is_the_entry_point_python_m_runs():
    # by regex: Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text("utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^(\S+) = "(.*)"$', scripts, re.M) == [
        ("platformdesign", "platformdesign.cli:run")
    ]
    source = Path(importlib.import_module("platformdesign.cli").__file__).read_text("utf-8")
    assert source.endswith('\nif __name__ == "__main__":\n    run()\n')


def test_import_loads_neither_numpy_nor_a_module():
    code = (
        "import sys, platformdesign\n"
        "names = dir(platformdesign)\n"
        "assert set(platformdesign.__all__) <= set(names)\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('platformdesign.')))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy, or of a module in it, fails
import numpy as np
from platformdesign.cli import main
from platformdesign.correlation import ArmCorrelations, PlatformArms, platform_z_correlation_matrix
from platformdesign.multiplicity import ErrorMetric, platform_threshold
from platformdesign.mvnorm import CorrelationMatrix, _QmcLattice

# lattice boxes at dims 3, 8 and 12, two-sided and with -inf lower bounds
for dim in (3, 8, 12):
    corr = CorrelationMatrix(np.eye(dim) * 0.6 + np.full((dim, dim), 0.4))
    for lower in (np.full(dim, -2.5), np.full(dim, -np.inf)):
        estimate = _QmcLattice(corr, seed=dim).refine(lower, np.full(dim, 2.5), 1e-4)
        assert 0.0 < estimate.value < 1.0 and estimate.stderr <= 1e-4
# m-FWER count pools of odd dims 3 and 5, both sides; a K = 2 count pool and
# a K = 2 fwer lattice
table = ArmCorrelations.per_substudy((0.3, 0.2), (0.5, 0.4))
k2 = platform_z_correlation_matrix(PlatformArms(120.0, (60.0, 60.0), (60.0, 60.0), table))
solves = [(CorrelationMatrix(np.eye(dim) * 0.7 + np.full((dim, dim), 0.3)),
           ErrorMetric.mfwer(2, 0.05, sided)) for dim in (3, 5) for sided in ("two", "one")]
for corr, metric in [*solves, (k2, ErrorMetric.mfwer(2, 0.05)), (k2, ErrorMetric.fwer())]:
    assert abs(platform_threshold(corr, metric).achieved - 0.05) <= 1e-8, (corr.dim, metric)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sys.modules["scipy"] is None)
"""


def test_the_package_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: with it blocked, a fresh interpreter runs
    # the lattice, odd- and even-dimension count pools and every subcommand
    path = tmp_path / "pdx.csv"
    path.write_text(FIXTURE_INDEPENDENT_CSV, encoding="utf-8")
    small_grid = ["--start", "0", "--stop", "0.5", "--step", "0.5"]
    calls = [
        ["adjust", "--rho", "0.461"],
        ["adjust", "--metric", "mfwer", "--m", "2", "--k", "2", "--n-a", "120", "--n-b", "60",
         "60", "--n-ab", "60", "60", "--rho-ab-a", "0.3", "0.2", "--rho-ab-b", "0.5", "0.4"],
        ["design", "--delta", "0.663", "--synergy", "1.161", "--rho-ab-a", "0.626",
         "--rho-ab-b", "0.660", "--metric", "fwer"],
        ["estimate", "--input", str(path), "--drug-a", "A", "--drug-b", "B", "--combo", "AB",
         "--with-thresholds"],
        *(["simulate", "--study", study, *small_grid]
          for study in ("error-curves", "adjustments", "thresholds")),
        ["simulate", "--study", "design-surface", "--start", "0.5", "--stop", "1.0", "--step",
         "0.5", "--rho-levels", "0.3"],
    ]
    proc = run_python("-W", "error", "-c", _WITHOUT_SCIPY, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
