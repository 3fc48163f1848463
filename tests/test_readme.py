"""README's Library tour runs as written: its ``>>>`` examples are doctests."""

import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_tour(monkeypatch):
    monkeypatch.chdir(ROOT)  # the tour opens data/white.csv
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 15
    assert result.failed == 0
