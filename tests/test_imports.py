"""Every imported name is used in the module that imports it, every
definition in the package is read somewhere in the package or its tests, and
the definitions only tests read are exactly the declared ones.  No module of
the package builds a value type through _replace or _make, which skip its
checks.

A name that only appears in a docstring or a comment is not a use."""

import ast
import pathlib

import pytest

from aflcalc.cli import COMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "aflcalc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the package __init__ re-exports its imports through __all__
MODULES = [p for p in SOURCES if p.name != "__init__.py"] + TESTS
# main dispatches run_<command> by name from the COMMANDS table
DISPATCHED = "\n".join(f"run_{command}" for command in COMMANDS)

# The library definitions no module of the package reads, each with the
# reason it stays: the tests state a law of the engine through it, or a tool
# outside the package reads it.
READ_OUTSIDE_THE_PACKAGE = {
    "eta_s": "states the pullback law",
    "ValClass.inverse": "states the pullback law",
    "OrbitData.along_orbit": "states the transformation law",
    "eta_twist_difference": "states the transformation law",
    "zero_orbit_battery": "the acceptance zero-germ check",
    "zero_orbit_zero_germ": "the acceptance zero-germ check",
    "GermExpansion.predicted_d_orb": "the derivative germ",
    "GermExpansion.derivative_is_zero": "the derivative germ",
    "LaurentPoly.monomial_count": "the perfbench tracer counts monomials with it",
}


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def definitions(source: str) -> list[str]:
    """Top-level defs, classes and assigned names, and the non-dunder methods
    of each class as Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(name.id for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name) and name.id != "__all__")
        if isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))
    return out


def reads(sources: list[str]) -> set[str]:
    """Every name read as a Name load or as an attribute."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def unread(defining: str, readers: list[str]) -> list[str]:
    """The definitions of one module that no reader reads, in source order."""
    read = reads(readers)
    return [name for name in definitions(defining) if name.split(".")[-1] not in read]


# named-tuple builders that bypass a value type's __new__, and so its checks
UNCHECKED_BUILDERS = {"_replace", "_make"}


def unchecked_builds(source: str) -> list[int]:
    """The lines on which a module reads _replace or _make."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in UNCHECKED_BUILDERS)


def test_a_docstring_mention_is_not_a_use():
    source = '"""Run under pytest -s."""\nimport os.path\nimport pytest\nos.path.join("a")\n'
    assert unused_imports(source) == ["pytest"]


def test_a_definition_mentioned_only_in_text_is_unread():
    defining = ('"""ONE and TWO; see also Box.area."""\nONE = 1\nTWO = ONE  # Box.area\n'
                'class Box:\n    def area(self):\n        return 0\n    def __len__(self):\n'
                '        return 0\n')
    assert unread(defining, [defining]) == ["TWO", "Box", "Box.area"]
    assert unread(defining, [defining, "Box().area()\nTWO\n"]) == []


def test_every_unchecked_build_is_found():
    source = ('"""Not gamma._replace(t=1)."""\nbox = Box._make(items)\n'
              'copy = gamma._replace\nother = gamma.replace(t=1)  # _replace\n')
    assert unchecked_builds(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_read(path):
    readers = [p.read_text() for p in SOURCES + TESTS] + [DISPATCHED]
    assert unread(path.read_text(), readers) == []


def test_only_the_declared_definitions_go_unread_by_the_package():
    readers = [p.read_text() for p in SOURCES] + [DISPATCHED]
    unread_in_package = {name for path in SOURCES for name in unread(path.read_text(), readers)}
    assert unread_in_package == set(READ_OUTSIDE_THE_PACKAGE)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_values_are_built_through_their_class(path):
    assert unchecked_builds(path.read_text()) == []
