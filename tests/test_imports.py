"""Every imported name is used in the module that imports it, every
definition in the package and in the tests' law helpers is read somewhere in
the package or its tests, and the definitions the package itself does not
read are exactly the declared ones, each read where it is declared to be.
The method names more than one package class defines are declared too: a
read matches a name, not a class, so a shared name could hide an unread
method.  No module of the package imports from the tests, or builds a value
type through _replace or _make, which skip its checks.

A name that only appears in a docstring or a comment is not a use."""

import ast
import pathlib

import pytest

from aflcalc.cli import COMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "aflcalc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the modules whose every definition must be read: the package and the law
# helpers its tests share
DEFINING = SOURCES + [ROOT / "tests" / "laws.py"]
# the package __init__ re-exports its imports through __all__
MODULES = [p for p in SOURCES if p.name != "__init__.py"] + TESTS
# main dispatches run_<command> by name from the COMMANDS table
DISPATCHED = "\n".join(f"run_{command}" for command in COMMANDS)

# The library definitions no module of the package reads, each with the
# file outside the package that reads it: a test that states a law of the
# engine through it, or a tool.
READ_OUTSIDE_THE_PACKAGE = {
    "GermExpansion.predicted_d_orb": "tests/test_germs.py",  # the derivative germ
    "LaurentPoly.monomial_count": "perfbench/tracer.py",  # counts orb_s's monomials
}

# The method names more than one package class defines.  A read is matched
# by name alone, so reading one class's method counts for every class that
# shares its name; each of these is read on every class that defines it, as
# checked by hand when it was declared.
SHARED_METHOD_NAMES = {"to_json", "json_values", "pulled_back", "terms"}


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


def shared_method_names(sources: list[str]) -> set[str]:
    """The method names that more than one class of the sources defines."""
    methods = [name.split(".")[1] for source in sources for name in definitions(source)
               if "." in name]
    return {name for name in methods if methods.count(name) > 1}


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


def imported_roots(source: str) -> set[str]:
    """The top-level names of the modules a source imports by absolute name."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names.update(node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0)
    return {name.split(".")[0] for name in names}


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


def test_a_method_name_two_classes_define_is_shared():
    source = ('class A:\n    def scale(self):\n        pass\n    def __len__(self):\n'
              '        return 0\ndef scale():\n    pass\n')
    other = ('class B:\n    def scale(self):\n        pass\n    def __len__(self):\n'
             '        return 0\n')
    assert shared_method_names([source]) == set()
    assert shared_method_names([source, other]) == {"scale"}


def test_only_the_declared_method_names_are_shared():
    # a new shared name could hide an unread method: check by hand that it
    # is read on every class that defines it, then declare it
    assert shared_method_names([p.read_text() for p in SOURCES]) == SHARED_METHOD_NAMES


def test_every_unchecked_build_is_found():
    source = ('"""Not gamma._replace(t=1)."""\nbox = Box._make(items)\n'
              'copy = gamma._replace\nother = gamma.replace(t=1)  # _replace\n')
    assert unchecked_builds(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", DEFINING, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_read(path):
    readers = [p.read_text() for p in SOURCES + TESTS] + [DISPATCHED]
    assert unread(path.read_text(), readers) == []


def test_only_the_declared_definitions_go_unread_by_the_package():
    readers = [p.read_text() for p in SOURCES] + [DISPATCHED]
    unread_in_package = {name for path in SOURCES for name in unread(path.read_text(), readers)}
    assert unread_in_package == set(READ_OUTSIDE_THE_PACKAGE)


def test_each_exemption_is_read_where_it_is_declared():
    for name, path in READ_OUTSIDE_THE_PACKAGE.items():
        assert name.split(".")[-1] in reads([(ROOT / path).read_text()]), name


def test_the_package_imports_nothing_from_the_tests():
    from_tests = {"tests"} | {path.stem for path in TESTS}
    source = "import tests.laws\nfrom laws import along_orbit\nfrom .field import PLUS\n"
    assert imported_roots(source) & from_tests == {"tests", "laws"}
    for path in SOURCES:
        assert not imported_roots(path.read_text()) & from_tests, path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_values_are_built_through_their_class(path):
    assert unchecked_builds(path.read_text()) == []


def test_the_recursion_reads_no_other_definition_of_its_module():
    # lift_bound_recursive is the closed form's check in every deform row, so
    # it shares no premise with it: not ramification_index, not
    # geometric_sum, only the one check of the inputs
    source = (ROOT / "src" / "aflcalc" / "deformation.py").read_text()
    recursion = next(node for node in ast.parse(source).body
                     if isinstance(node, ast.FunctionDef) and node.name == "lift_bound_recursive")
    assert reads([ast.unparse(recursion)]) & set(definitions(source)) == {"inadmissible_heights"}
