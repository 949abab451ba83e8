"""No module imports a name it never reads.

An unread import is dead surface: a reader looks for its use, and a
renamed or deleted name keeps a stale import alive.  ``__init__.py`` is
left out, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "infmix").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unread_imports(source: str) -> list:
    """The names that the ``import`` statements of ``source`` bind and
    that no ``ast.Name`` of it reads, in order of first binding."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(bound) if name not in read]


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport os.path as osp\n"
              "from a import b, c\nnp.zeros(b)\n")
    assert unread_imports(source) == ["os", "osp", "c"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    unread = unread_imports(path.read_text())
    assert not unread, f"{path.name} never reads {', '.join(unread)}"
