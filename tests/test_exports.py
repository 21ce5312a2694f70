"""Every name a pbfopt module exports must exist."""

import importlib

import pytest

MODULES = (
    "cli",
    "optimize",
    "pipeline",
    "reduction",
    "risk",
    "stress",
    "surrogate",
    "thermal",
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    namespace = {}
    # a name listed in __all__ but missing makes the star import fail
    exec(f"from pbfopt.{name} import *", namespace)
    module = importlib.import_module(f"pbfopt.{name}")
    assert set(module.__all__) <= set(namespace)
