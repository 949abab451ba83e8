"""No module-level function or class of ``src/infmix`` is dead code.

A helper that only tests call is surface that the program never runs: a
reader looks for its use, and it keeps its tests alive long after the
behaviour they pin has left the program.  A definition counts as read if
any code of ``src/infmix`` (less ``__init__.py``, whose imports are the
package's exports), ``scripts/`` or ``perfbench/`` reads its name, as a
bare name or an attribute.  The scan goes by name alone, so a dead helper
that shares its name with something read passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "infmix").glob("*.py")
                 if p.name != "__init__.py")
READERS = SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def definitions(source: str) -> list:
    """The names of the module-level functions and classes of ``source``."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def names_read(source: str) -> set:
    """Every name that ``source`` loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_the_scan_finds_an_unread_definition():
    source = ("import m\n\ndef used():\n    pass\n\ndef unused():\n    pass\n\n"
              "class Kept:\n    pass\n\nused()\nm.Kept\nunused = 1\n")
    read = names_read(source)
    assert definitions(source) == ["used", "unused", "Kept"]
    assert [name for name in definitions(source) if name not in read] == [
        "unused"]


def test_every_definition_is_read():
    read = set().union(*(names_read(p.read_text()) for p in READERS))
    dead = [f"{path.name}: {name}" for path in SOURCES
            for name in definitions(path.read_text()) if name not in read]
    assert not dead, "read by no code of src/, scripts/ or perfbench/: " + (
        ", ".join(dead))
