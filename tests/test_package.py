"""Package-shape guards: every public name of an ``hfmm`` module is code the
program runs, not code that only tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hfmm"
BENCH = ROOT / "hfmmbench"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    """The names of the module's ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _read_names(tree):
    """Every name the code loads and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_exports():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    read = set()
    for path in modules + sorted(BENCH.rglob("*.py")):
        read |= _read_names(_tree(path))
    return sorted(name for path in modules
                  for name in _exported(_tree(path)) if name not in read)


def test_every_exported_name_is_read_by_the_program():
    assert unread_exports() == []
