import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qpnls"
TESTS = Path(__file__).resolve().parent


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


# __init__.py imports only to re-export; test_acceptance.py is pinned as
# written, unused imports and all.
@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(p for p in TESTS.glob("*.py") if p.name != "test_acceptance.py"),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = SRC.parents[1]


def names_in(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name, attribute and imported name under an AST node, leaving
    out the subtree at skip."""
    out, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        todo.extend(ast.iter_child_nodes(n))
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


def definitions(tree: ast.Module):
    """(label, node) of a module's top-level functions and classes, and of
    the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def unreached_definitions() -> list[str]:
    """Top-level functions and classes of src/qpnls (outside __init__.py),
    and their classes' non-dunder methods, that no other module of src/,
    no other part of their own module, no demo, no perfbench file and no
    acceptance test names."""
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
        for label, node in definitions(tree):
            if node.name not in others | names_in(tree, skip=node):
                unreached.append(f"{name}:{label}")
    return unreached


def test_names_in_counts_names_attributes_and_imports():
    tree = ast.parse("from m import f\nimport a.b\ng(x.h)\n")
    assert names_in(tree) >= {"f", "b", "g", "x", "h"}


def test_definitions_include_methods_but_not_dunders():
    tree = ast.parse("def f(): pass\nclass C:\n    def __init__(self): pass\n"
                     "    def g(self): pass\n    x = 1\n")
    assert [label for label, _ in definitions(tree)] == ["f", "C", "C.g"]


def test_names_in_skips_a_subtree():
    tree = ast.parse("class C:\n    def g(self): return self.h()\n"
                     "    def h(self): return self.g()\n")
    g = tree.body[0].body[0]
    assert "h" not in names_in(tree, skip=g) and "g" in names_in(tree, skip=g)


def test_library_definitions_are_reached():
    assert unreached_definitions() == []
