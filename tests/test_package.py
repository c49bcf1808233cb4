"""Package-shape guards: every public name, module-level function and class,
and non-dunder method of an ``hfmm`` module is code the program runs, not
code that only tests call."""

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


def _defined(tree):
    """The module's top-level functions and classes, and each class's
    methods other than dunders, as ``name`` or ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, defs) and not (
                          m.name.startswith("__") and m.name.endswith("__"))]
    return names


def _read_names(tree):
    """Every name the code loads and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _program_reads():
    """What the package (outside ``__init__``) and the benchmark harness,
    less its tests, read."""
    bench = sorted(p for p in BENCH.rglob("*.py")
                   if "tests" not in p.relative_to(BENCH).parts)
    read = set()
    for path in _modules() + bench:
        read |= _read_names(_tree(path))
    return read


def unread_exports():
    read = _program_reads()
    return sorted(name for path in _modules()
                  for name in _exported(_tree(path)) if name not in read)


def unread_definitions():
    """``module.name`` of each definition whose name (a method's own name)
    no program code reads."""
    read = _program_reads()
    return sorted(f"{path.stem}.{name}" for path in _modules()
                  for name in _defined(_tree(path))
                  if name.rpartition(".")[2] not in read)


def test_every_exported_name_is_read_by_the_program():
    assert unread_exports() == []


def test_every_function_class_and_method_is_read_by_the_program():
    assert unread_definitions() == []
