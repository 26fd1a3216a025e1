"""Source-level checks on the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cablekit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"


DENSE_ALGEBRA = {"mat_mul", "solve_integer_system", "symplectic_inverse"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_linear_algebra(path):
    # the sparse oracle is the only matrix evaluator in the package; the dense
    # references live in the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert not defined & DENSE_ALGEBRA, f"{path.name} defines {sorted(defined & DENSE_ALGEBRA)}"


def test_oracle_module_has_no_fractions():
    path = next(p for p in SOURCES if p.name == "curves.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "Fraction" not in imported and "fractions" not in imported | modules
