"""Every public name has a reader.

A name in some ``qntl`` module's ``__all__`` must be read somewhere in
``src/qntl`` or ``bench/``; the tests do not count, since a name only the
tests read belongs in the tests.  A reader is a load of the name (``name``
or ``obj.name``), a module path that passes through it in an import, or a
``module:name`` patch target string as ``bench/tracing.py`` writes them.
Definitions, assignments, import lists, ``__all__`` entries and docstrings
are not readers.
"""
import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "qntl").rglob("*.py")) + sorted((REPO / "bench").rglob("*.py"))


def exported_and_read():
    exported: dict[str, list[str]] = {}
    read: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    exported.setdefault(name, []).append(str(path.relative_to(REPO)))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.update(node.module.split("."))
            elif isinstance(node, ast.Import):
                read.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                module, colon, target = node.value.partition(":")
                if colon and module.startswith("qntl"):
                    read.update(module.split(".") + target.split("."))
    return exported, read


def test_every_exported_name_has_a_reader():
    exported, read = exported_and_read()
    assert "generate_topology" in exported and "route" in read
    unread = {name: where for name, where in exported.items() if name not in read}
    assert unread == {}
