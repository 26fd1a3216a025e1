"""Source-level checks on the package."""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cablekit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"


DENSE_ALGEBRA = {"mat_mul", "solve_integer_system", "symplectic_inverse"}


def _defined(tree):
    """The names a module binds by def, class or plain assignment."""
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return defined | {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_linear_algebra(path):
    # the sparse oracle is the only matrix evaluator in the package; the dense
    # references live in the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = _defined(tree)
    assert not defined & DENSE_ALGEBRA, f"{path.name} defines {sorted(defined & DENSE_ALGEBRA)}"


def _imported(tree):
    """Every module a tree imports from and every name it imports."""
    imported = {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return imported | {alias.name for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_braid_lift(path):
    # the rotation curves of the (2,2) system are declared in closed form; the
    # braid lift and the class extraction are the tests' reference for them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not any(name.rpartition(".")[2] == "braids" for name in _imported(tree)), path.name
    assert "extract_transvection_class" not in _defined(tree), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_or_resource_reads(path):
    # every input comes from the command line: the package reads no
    # environment variable and loads no files of its own
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not any(name.partition(".")[0] in ("importlib", "resources")
                   for name in _imported(tree)), path.name
    assert not _names_read(tree).keys() & {"environ", "getenv"}, path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # importing `dataclasses` (and through it `inspect`) and building each
    # decorated class cost every CLI call about 20 ms: the value classes are
    # plain slotted classes, checked against dataclass twins in the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not any(name.partition(".")[0] == "dataclasses" for name in _imported(tree)), path.name


def _module_level(tree):
    """The nodes that run at import: everything outside function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_fractions(path):
    # `fractions` brings `decimal` and `numbers` along, about 3 ms of every
    # CLI call; it is imported only where a fraction is built
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in _module_level(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {name for node in imports
                for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]}
    assert not any(name.partition(".")[0] == "fractions" for name in imported), path.name


def test_cli_takes_no_builder_from_monodromy():
    # `monodromy_pq` reads the cable pair and picks the builder; the CLI
    # calls it and keeps no copy of that route
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "monodromy"
             for alias in node.names}
    assert names == {"monodromy_pq", "stein_obstruction_Lppm1", "compose_cobordism_word"}
    # nor the module itself, through which any builder could be reached
    assert not [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name.rpartition(".")[2] == "monodromy"]


def test_package_holds_only_python_files():
    package = ROOT / "src" / "cablekit"
    files = [p.relative_to(package) for p in package.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    assert files and all(p.suffix == ".py" and len(p.parts) == 1 for p in files), files


def test_oracle_module_has_no_fractions():
    path = next(p for p in SOURCES if p.name == "curves.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "Fraction" not in imported and "fractions" not in imported | modules


def _names_read(tree):
    """Every name a tree reads, as a plain name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


@functools.cache
def _names_read_by_package_and_bench():
    # the tracer's proxy lists name entry points without calling them
    bench = sorted(p for p in (ROOT / "bench").glob("*.py") if p.name != "tracing.py")
    return sum((_names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES + bench),
               Counter())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_definition_is_used(path):
    # a function or class that only the tests call belongs in the tests,
    # public name or not.  Definitions and uses are matched by bare name, so
    # any read of the same name, `obj.parse` say, counts as a use: the guard
    # catches only dead definitions whose names are read nowhere else.
    read = _names_read_by_package_and_bench()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and read[node.name] == _names_read(node)[node.name]]  # beyond its own body
    assert not unused, f"{path.name} defines {unused}, which nothing outside the tests names"


def _scoped(node, scope):
    """Every node below `node` with the name of its innermost enclosing
    function, or `scope` outside any."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield inner, child
        yield from _scoped(child, inner)


def _fills(node, attr):
    """Whether `node` assigns some `.<attr>` (alone or in a tuple of
    targets), stores an item into one, or calls one of its mutating methods."""
    def is_attr(target):
        return isinstance(target, ast.Attribute) and target.attr == attr

    if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
        return is_attr(node.value)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return is_attr(node.target)
    if isinstance(node, ast.Assign):
        return any(is_attr(elt) for target in node.targets
                   for elt in (target.elts if isinstance(target, (ast.Tuple, ast.List))
                               else (target,)))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"update", "setdefault", "pop", "popitem", "clear"}
            and is_attr(node.func.value))


def _writers(attr):
    """(module, function) of every write into some `.<attr>` in the sources."""
    return {(path.stem, scope) for path in SOURCES
            for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")), None)
            if _fills(node, attr)}


def test_only_the_cable_p1_builder_fills_expansions():
    # an expansion counts m(2m + 2) letters in the algebraic length on the
    # strength of a chain relation that `monodromy._nodule_block` checks once
    # per genus for the (p,1) nodule chains; nothing else may store one, and
    # `CurveSystem.__init__` starts each system with none
    assert _writers("expansions") == {("curves", "__init__"), ("monodromy", "cable_p1_system")}


def test_only_the_cable_builders_set_the_rotation():
    # the oracle applies a rotation's stored turn in place of its run on the
    # strength of `monodromy._nodule_block`, which checks the closed form of
    # layout 1's Garside block once per genus; both cable pages derive their
    # turns from it, `CurveSystem.__init__` sets None, and nothing else may
    # store one
    assert _writers("rotation") == {("curves", "__init__"), ("monodromy", "cable_p1_system"),
                                    ("monodromy", "sigma22_cover_system")}


def test_writers_sees_plain_and_tuple_assignment():
    tree = ast.parse("def f(s):\n    s.rotation = 1\n"
                     "def g(s):\n    s.a, s.rotation = 1, 2\n"
                     "def h(s):\n    s.rotation: int = 1\n"
                     "def k(s):\n    rotation = s.rotation\n")
    assert {scope for scope, node in _scoped(tree, None) if _fills(node, "rotation")} == {
        "f", "g", "h"}


def test_only_the_negative_cable_word_asks_for_the_inverse_rotation():
    # `cable_p1_system`'s sign picks the inverse run; one caller sets it
    callers = {(path.stem, scope) for path in SOURCES
               for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")), None)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cable_p1_system"
               and (len(node.args) > 2 or node.keywords)}
    assert callers == {("monodromy", "negative_cable_word")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_general_delta_product(path):
    # blocks apply as signed permutations, the (2,2) conjugate is a
    # relabelling and the chain relation is checked in closed form; the
    # general product and power of deltas are the tests' slow references
    defined = _defined(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not defined & {"_delta_product", "_delta_power"}, path.name


@pytest.mark.parametrize("name", ["chain_classes", "_nodule_swap", "_checked_turn"])
def test_only_the_nodule_block_builds_and_checks_the_model(name):
    # both cable pages read the one genus model that `monodromy._nodule_block`
    # builds and checks, with the one closed-form turn, the half twist; a
    # second basis, closed form or check would be a second model
    callers = {(path.stem, scope) for path in SOURCES
               for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8")), None)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}
    assert callers == {("monodromy", "_nodule_block")}


def test_only_record_intersection_fills_intersections():
    # a recorded 0 lets a `commute` step fire; one method writes entries, and
    # the cable pages, which install data checked once per genus, call none
    assert _writers("intersections") == {("curves", "__init__"),
                                         ("curves", "record_intersection")}


def test_only_library_records_and_checks_tables():
    # the script pages, whose tables `replay` reads, record intersections
    # and close with check(); the cable pages pair their classes in place
    callers = {path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in {"record_intersection", "check"}}
    assert callers == {"library.py"}


def _is_cache(decorator):
    """Whether a decorator is functools' lru_cache or cache, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in {"lru_cache", "cache"}


def test_no_cached_function_returns_a_curve_system():
    # a cached CurveSystem would be one mutable object shared by every
    # caller; the builders cache checked model data and build a fresh system
    cached = [f"{path.name}:{node.name}" for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(map(_is_cache, node.decorator_list)) and node.returns is not None
              and "CurveSystem" in ast.unparse(node.returns)]
    assert not cached, f"{cached} cache a CurveSystem"


def test_only_frozen_defines_equality():
    # every value class compares by its fields through `_Frozen.__eq__`; a
    # class with its own comparison would follow a second rule
    defining = [f"{path.name}:{node.name}" for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ClassDef) and "__eq__" in _defined(node)]
    assert defining == ["__init__.py:_Frozen"]
