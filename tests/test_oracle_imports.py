"""The oracle module imports none of the fast paths it is meant to check.

``oracle.py`` may share the sphere core and the Belt container, but not
canonical forms, the Hasse graph, splits or contractions; otherwise a
test that compares the two would compare a function with itself.  The
check is syntactic, over every ``import`` and ``from ... import`` of the
module.
"""

import ast
from pathlib import Path

import flagsphere as fs

PACKAGE = Path(fs.__file__).parent
FAST = {"canonical", "hasse", "expansion", "contraction"}


def imported_modules(path):
    """``(line, module)`` for each package module that ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[-1]
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                yield node.lineno, node.module.split(".")[-1]
            if node.module in (None, "flagsphere"):
                for alias in node.names:
                    yield node.lineno, alias.name


def test_scan_sees_the_oracle_imports():
    # the check below would pass vacuously if it could not see these
    found = {name for _, name in imported_modules(PACKAGE / "oracle.py")}
    assert {"sphere", "flags", "errors"} <= found


def test_oracle_imports_no_fast_path():
    uses = [
        f"oracle.py:{line}: {name}"
        for line, name in imported_modules(PACKAGE / "oracle.py")
        if name in FAST
    ]
    assert uses == []
