"""Package surface: each module's exports are the objects umpbt re-exports."""

import importlib

import pytest

import umpbt


@pytest.mark.parametrize("name", ["bayes", "contingency", "power", "solver", "special",
                                  "ttest"])
def test_every_export_resolves_in_its_module_and_in_umpbt(name):
    module = importlib.import_module(f"umpbt.{name}")
    for export in module.__all__:
        assert getattr(module, export) is getattr(umpbt, export), export
