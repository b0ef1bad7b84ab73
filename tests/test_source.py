"""Structure of the package source: no function in src/ serves tests only."""

import ast
from pathlib import Path

import crossdiff

SOURCE = Path(crossdiff.__file__).resolve().parent

# exprs.evaluate is the target that perfbench/tracing.py wraps for its
# expression layer; nothing in the package calls it, but the tracer reports
# that layer absent without it
ALLOWED_UNUSED = {"exprs.evaluate"}


def unused_functions(source: Path) -> list:
    """The non-dunder functions and methods of source/*.py, as module.name,
    whose name no module reads outside the function's own definition; the
    re-exports of __init__.py do not count as a use."""
    defs, uses = [], []
    for path in sorted(source.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node))
            elif module == "__init__":
                continue
            elif isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
    return sorted(
        f"{module}.{node.name}" for module, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(name == node.name and not (
            where == module and node.lineno <= line <= node.end_lineno)
            for where, name, line in uses))


def test_every_function_in_src_is_used_in_src():
    # a function only the tests call belongs in the tests
    assert unused_functions(SOURCE) == sorted(ALLOWED_UNUSED)


def test_the_scan_counts_neither_re_exports_nor_self_reads(tmp_path):
    # lonely is only re-exported and selfish only reads itself; recursive
    # reads itself too, but b calls it, and it calls used
    (tmp_path / "__init__.py").write_text(
        "from .a import used, recursive, selfish, lonely\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def selfish(n):\n    return selfish(n - 1) if n else 0\n\n"
        "class K:\n    def lonely(self):\n        return 2\n\n"
        "    def __len__(self):\n        return 0\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import recursive\n\nrecursive(3)\n", encoding="utf-8")
    assert unused_functions(tmp_path) == ["a.lonely", "a.selfish"]
