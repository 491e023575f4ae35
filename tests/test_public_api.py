"""Every module-level name of ``oddcrit``, and every public method and
property of its public classes, has a user outside the tests.

A name that only the tests call is code the package carries for nothing: it
moves into ``tests/`` or goes, whether or not its name starts with '_'.
References are read with ``ast``: a loaded ``Name`` or ``Attribute``, or an
imported name, anywhere in ``src/oddcrit`` or ``perfbench/*.py``, except
inside the name's own module-level definition, so recursion is no use.  A
class member needs a loaded ``Attribute`` of its name: a bare ``Name``, such
as a local ``degree``, is no call of a ``degree`` method.  Strings, such as
the entries of ``__all__``, do not count, and neither do the test files.
Dunder names such as ``__version__`` are left out.
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
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def definitions(tree: ast.Module):
    """Names of the module-level functions, classes and constants, dunders aside."""
    for node in tree.body:
        for name in defined_names(node):
            if not (name.startswith("__") and name.endswith("__")):
                yield name


def references(tree: ast.Module):
    """Names the module loads or imports, each outside its own definition."""
    for top in tree.body:
        own = set(defined_names(top))
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name not in own:
                yield name


def unused_definitions(private: bool) -> list[str]:
    used = {name for path in USERS for name in references(parse(path))}
    return sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for name in definitions(parse(path))
        if name.startswith("_") == private and name not in used
    )


def public_members(tree: ast.Module):
    """(class, member) names of the public methods and properties of the public classes."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name


def test_every_public_name_has_a_user_outside_the_tests():
    # an allowed name that gains a user, or goes, fails too
    unused = unused_definitions(private=False)
    assert {name.split(".")[1] for name in unused} == UNUSED_BY_DESIGN.keys()


def test_every_private_name_has_a_user_outside_the_tests():
    # a leading '_' hides no helper that only the tests call
    assert unused_definitions(private=True) == []


def test_every_public_member_has_a_user_outside_the_tests():
    # dunders such as __eq__ start with '_', so they are left out
    loaded = {
        node.attr
        for path in USERS
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unused = [
        f"{path.stem}.{cls}.{name}"
        for path in MODULES
        for cls, name in public_members(parse(path))
        if name not in loaded
    ]
    assert unused == []
