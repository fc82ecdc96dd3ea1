"""Every name a module of the package exports is one of its attributes, so
an export cannot outlive the function it named."""

import importlib
import pkgutil

import pytest

import uavad

MODULES = ["uavad"] + [m.name for m in pkgutil.iter_modules(uavad.__path__, "uavad.")]


def test_the_package_modules_are_found():
    assert {"uavad.detect", "uavad.evaluate", "uavad.world"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
