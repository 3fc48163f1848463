"""Package surface: each module's ``__all__`` is the one list of what umpbt
re-exports, in both directions."""

import importlib
import types

import pytest

import umpbt

MODULES = ["bayes", "contingency", "errors", "power", "solver", "special", "ttest"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_in_its_module_and_in_umpbt(name):
    module = importlib.import_module(f"umpbt.{name}")
    for export in module.__all__:
        assert getattr(module, export) is getattr(umpbt, export), export


def test_every_public_name_of_umpbt_is_some_modules_export():
    # a module without __all__ would leak its imports (np, math) through the
    # wildcard; the submodules are the only other public names (umpbt.cli
    # joins them once something imports it)
    exported = {export for name in MODULES
                for export in importlib.import_module(f"umpbt.{name}").__all__}
    public = {name for name in dir(umpbt) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(umpbt, name), types.ModuleType)}
    assert set(MODULES) <= submodules <= set(MODULES) | {"cli"}
    assert public - submodules == exported


def test_each_error_class_is_one_printed_category():
    # the CLI prints error: <category>:, so two classes of one category
    # would be one failure under two names
    classes = [getattr(umpbt.errors, name) for name in umpbt.errors.__all__]
    categories = [cls.category for cls in classes if cls is not umpbt.UmpbtError]
    assert sorted(categories) == ["domain", "parse", "solver", "validation"]
    assert all(issubclass(cls, umpbt.UmpbtError) for cls in classes)
