"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "subsetphase").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so no correctness check may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


# names of the circuit view that the drivers must not reach for
CIRCUIT_NAMES = ("apply_circuit", "Circuit")


def _circuit_name(name: str) -> bool:
    return name in CIRCUIT_NAMES or name.endswith("_thermalizer")


def test_drivers_run_programs_only():
    # every driver loop runs packed array programs; ``Circuit`` objects
    # are for ``gen``, ``sim`` and the tests
    path = Path(__file__).resolve().parents[1] / "src" / "subsetphase" / "drivers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(a.name, node.lineno) for a in node.names if _circuit_name(a.name.rpartition(".")[2])]
        elif isinstance(node, ast.Attribute) and _circuit_name(node.attr):
            found.append((node.attr, node.lineno))
    assert found == [], f"drivers.py reaches for circuit objects: {found}"
