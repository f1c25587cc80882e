import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qpnls"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that no other line of the module uses."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_detects_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["os"]


# __init__.py imports only to re-export.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = SRC.parents[1]


def names_in(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under an AST node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def spanned_names() -> set[str]:
    """The parts of the dotted names in perfbench/spans.py's SPANNED."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["SPANNED"])
    return {part for n in ast.walk(table) if isinstance(n, ast.Constant)
            for part in str(n.value).split(".")}


def unreached_definitions() -> list[str]:
    """Top-level functions and classes of src/qpnls (outside __init__.py)
    that no other module of src/, no other part of their own module, no
    demo, no perfbench file and no acceptance test names."""
    users = [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    outside = spanned_names().union(*(names_in(ast.parse(p.read_text()))
                                      for p in users))
    modules = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    unreached = []
    for name, tree in sorted(modules.items()):
        others = outside.union(*(names_in(t) for o, t in modules.items()
                                 if o != name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = set().union(*(names_in(s) for s in tree.body
                                    if s is not node))
                if node.name not in others | own:
                    unreached.append(f"{name}:{node.name}")
    return unreached


def test_names_in_counts_names_attributes_and_imports():
    tree = ast.parse("from m import f\nimport a.b\ng(x.h)\n")
    assert names_in(tree) >= {"f", "b", "g", "x", "h"}


def test_library_definitions_are_reached():
    assert unreached_definitions() == []
