"""Only ``sphere.py`` reads or writes the private slots of ``SimplicialSphere``.

Every other module of the package goes through the sphere's public
accessors, so what a sphere stores can change in one file.  The check
is syntactic: any attribute access, or ``getattr``-style call with a
literal name, naming a private slot counts, whatever the object.
"""

import ast
from pathlib import Path

import flagsphere as fs

PACKAGE = Path(fs.__file__).parent
PRIVATE = {name for name in fs.SimplicialSphere.__slots__ if name.startswith("_")}


def private_slot_uses(path):
    """``(line, name)`` for each use of a private slot name in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "delattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in PRIVATE
        ):
            yield node.lineno, node.args[1].value


def test_sphere_uses_every_private_slot():
    # the scan below would pass vacuously if it could not see these uses
    assert {name for _, name in private_slot_uses(PACKAGE / "sphere.py")} == PRIVATE


def test_no_other_module_touches_private_slots():
    uses = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "sphere.py"
        for line, name in private_slot_uses(path)
    ]
    assert uses == []


def test_sphere_stores_faces_and_rotation_only():
    assert fs.SimplicialSphere.__slots__ == ("n", "faces", "_succ")
