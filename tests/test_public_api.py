"""Every public module-level name of ``oddcrit`` has a user outside the tests.

A name that only the tests call is code the package carries for nothing: it
moves into ``tests/`` or goes.  References are read with ``ast``: a loaded
``Name`` or ``Attribute``, or an imported name, anywhere in ``src/oddcrit``
or ``perfbench/*.py``.  Strings, such as the entries of ``__all__``, do not
count, and neither do the test files.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "oddcrit").glob("*.py"))
USERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

#: public names kept without a user, each with the reason
UNUSED_BY_DESIGN = {
    "is_join_family": "decides the extremal exceptions under any labelling, "
    "once evaluate_theorem stops comparing labels",
    "ordering_lemma_check": "open whether it stays library code or moves into tests/",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and constants not starting with '_'."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_user_outside_the_tests():
    used = {name for path in USERS for name in references(parse(path))}
    defined = {(path.stem, name) for path in MODULES for name in public_definitions(parse(path))}
    unused = sorted(f"{module}.{name}" for module, name in defined if name not in used)
    assert unused == sorted(
        f"{module}.{name}" for module, name in defined if name in UNUSED_BY_DESIGN
    )
    # an allowed name that gains a user fails the first assert, one that goes the second
    assert {name for _, name in defined} >= UNUSED_BY_DESIGN.keys()
