"""The package surface: each public name resolves on first use to its home
module's object, and ``import platformdesign`` alone loads no module."""

import importlib

import pytest
from conftest import run_python

import platformdesign

_MODULES = ("allocation", "correlation", "estimation", "multiplicity", "mvnorm", "power", "studies")


def test_each_public_name_is_its_home_modules_object():
    homes = [importlib.import_module(f"platformdesign.{name}") for name in _MODULES]
    assert len(set(platformdesign.__all__)) == len(platformdesign.__all__) == 34
    for name in platformdesign.__all__:
        value = getattr(platformdesign, name)
        if name == "errors":
            assert value is importlib.import_module("platformdesign.errors")
            continue
        (home,) = [module for module in homes if name in module.__all__]
        assert value is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(platformdesign.__all__) <= set(dir(platformdesign))


@pytest.mark.parametrize("name", ["no_such_name", "DEFAULT_TARGETS", "_HOME_MODULE"])
def test_an_unknown_name_is_an_attribute_error(name):
    # DEFAULT_TARGETS is public in multiplicity, not in the package
    with pytest.raises(AttributeError, match=f"module 'platformdesign' has no attribute '{name}'"):
        getattr(platformdesign, name)
    assert not hasattr(platformdesign, name)


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
