"""The package holds no API that only tests use, and one error base."""

import ast
from collections import Counter
from pathlib import Path

import nlroi
from nlroi import errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reads(node) -> Counter:
    """How often each name is read under ``node``, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def public_definitions(tree):
    """(qualified name, name, node) of each public top-level function and
    class, and of each public method and property of a public class."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
            continue
        yield top.name, top.name, top
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{top.name}.{item.name}", item.name, item


def test_every_public_name_is_read_outside_its_definition():
    """Each public function, class, method and property of ``nlroi`` is read
    in the package or in perfbench outside its own definition: one that only
    tests read is dead code. Names match by spelling, so a read of anything
    with the same name counts."""
    package = sorted(Path(nlroi.__file__).parent.glob("*.py"))
    total, unread = Counter(), []
    trees = {path: ast.parse(path.read_text()) for path in package + sorted(PERFBENCH.glob("*.py"))}
    for tree in trees.values():
        total += reads(tree)
    for path in package:
        for qualified, name, node in public_definitions(trees[path]):
            if total[name] == reads(node)[name]:
                unread.append(f"{path.stem}.{qualified}")
    assert unread == []


def test_every_error_class_derives_from_the_package_base():
    """One ``except NlRoiError`` catches every error the package defines;
    each class other than the base keeps a builtin base ahead of it."""
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    assert len(classes) > 1
    for cls in classes:
        assert issubclass(cls, errors.NlRoiError), cls.__name__
        if cls is not errors.NlRoiError:
            assert cls.__mro__[1] is not errors.NlRoiError, cls.__name__


def test_no_module_imports_a_private_name_of_another():
    """A module of ``nlroi`` imports no underscore name from another module
    of the package: a rule two modules need is public where it lives."""
    private = []
    for path in sorted(Path(nlroi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nlroi")):
                private += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
