"""Print one SHA-256 over a fixed list of ``umpbt`` command outputs.

Run from anywhere:

    python3 tools/cli_digest.py

Each case runs ``umpbt.cli.run`` in process on the source tree and feeds
its argv, exit status, stdout and stderr to the hash.  The list covers
every subcommand in plain and ``--json`` form, five error cases (every
printed category but ``parse`` and ``io``; the ``validation`` one reads a
table the tool writes), and the CSV that ``curve --df-max 30`` writes.  The checkout and temporary paths
are masked, and the CLI wraps usage lines at a fixed width whatever
``COLUMNS`` says, so equal digests at two commits mean byte-identical CLI
output on this list wherever the tree sits and whatever the terminal.  It
prints the digest and sets no threshold.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from umpbt.cli import run  # noqa: E402

WHITE_CSV = str(ROOT / "data" / "white.csv")
_EXPFAM = [
    ["--model", "binomial-proportion", "--theta0", "0.3", "--n", "20"],
    ["--model", "normal-mean-known-variance", "--theta0", "0", "--n", "5"],
    ["--model", "normal-variance-known-mean", "--theta0", "2", "--n", "12",
     "--nuisance", "1.5"],
]
COMMANDS = [
    ["chisq", "--df", "6", "--alpha", "0.05"],
    ["chisq", "--df", "100.6", "--gamma", "87.33"],
    ["bf", "--df", "6", "--stat", "12.65", "--gamma", "3"],
    ["bf", "--df", "3", "--stat", "20", "--alpha", "0.01"],
    ["contingency", WHITE_CSV, "--header", "--row-labels"],
    *[["expfam", *model, "--gamma", "3", "--side", "greater"] for model in _EXPFAM],
    ["power", "--df", "2", "--gamma", "3", "--theta-grid", "1:9:3:log",
     "--theta-t-grid", "0:4:2", "--mc", "5000", "--seed", "21"],
    ["power", "--df", "6", "--gamma", "3.46"],
    ["ttest-demo", "--n", "10", "--gamma", "3", "--theta-t", "2,4",
     "--seed", "5", "--draws", "5000"],
    # a descending grid, with a root row and a plateau row
    ["ttest-demo", "--n", "100", "--gamma", "3", "--theta-t=-2,-4",
     "--seed", "5", "--draws", "5000"],
]
ERRORS = [
    ["chisq", "--df", "6"],
    ["power", "--df", "6", "--gamma", "3", "--theta-grid", "0:inf:2"],
    ["bf", "--df", "6", "--stat", "100000", "--gamma", "3"],  # bf past double range
    ["chisq", "--df", "1e-10", "--gamma", "1.000000001"],  # a failed root, exit 2
]


def _feed(digest, argv, tmp="<tmp>") -> None:
    """Hash one invocation, with the checkout and temporary paths masked."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    record = "\0".join([" ".join(argv), str(code), out.getvalue(), err.getvalue()])
    record = record.replace(tmp, "<tmp>").replace(str(ROOT), "<root>")
    digest.update(record.encode("utf-8") + b"\0\0")


def main() -> None:
    digest = hashlib.sha256()
    for argv in COMMANDS:
        _feed(digest, argv)
        _feed(digest, argv + ["--json"])
    for argv in ERRORS:
        _feed(digest, argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "zero_column.csv"
        table.write_text("a,b\n0,1\n0,2\n", encoding="utf-8")
        _feed(digest, ["contingency", str(table), "--header"], tmp=str(table))
        path = str(Path(tmp) / "curve.csv")
        for fmt in ([], ["--json"]):
            _feed(digest, ["curve", "--df-max", "30", "-o", path, *fmt], tmp=path)
            digest.update(Path(path).read_bytes() + b"\0\0")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
