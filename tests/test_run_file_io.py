"""Each run-file format has one reader and one writer, in ``tiltlab.runfiles``.

A module elsewhere in tiltlab that imports ``csv``, or calls ``json.dumps``
or ``json.loads``, is a second reader or writer of a run file in the
making: one that skips the checks the single reader and writer make
(finite numbers, row widths, line numbers in errors).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tiltlab"
HOLDERS = {SRC / "runfiles.py"}


def _file_io(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            uses += [f"import {a.name}" for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            uses += [f"from {node.module} import {a.name}" for a in node.names
                     if node.module == "csv" or a.name in ("dumps", "loads")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("dumps", "loads")
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            uses.append(f"json.{node.attr}")
    return uses


def test_only_runfiles_reads_and_writes_run_files():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "harness" / "runner.py" in modules and HOLDERS <= set(modules)
    found = {str(p.relative_to(SRC)): _file_io(p) for p in modules if p not in HOLDERS}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_holder_is_seen_using_csv_and_json():
    # The search finds what it looks for.
    assert {"import csv", "json.dumps", "json.loads"} <= set(_file_io(SRC / "runfiles.py"))
