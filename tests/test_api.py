"""The package surface: its public names, no dead imports in its modules, and a
runtime that needs nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

import testerbounds

MODULES = sorted(p for p in Path(testerbounds.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# the package's exports and its public submodules, each resolved on first use
PUBLIC = [
    "BoundReport", "Channel", "ChannelOptResult", "DimensionError", "HermitianOperator", "Ket",
    "MEB", "PositivityError", "Scenario", "SolverError", "Test", "Tester", "ValidationError",
    "ancilla_free_scenario", "basis_transpose", "bound_report", "bounds", "channel_constant",
    "channel_from_choi", "channel_from_kraus", "channel_from_unitary", "channel_opt",
    "check_close", "check_povm", "check_psd", "check_state", "closed_form_state_bound",
    "direct_probability", "eig_hermitian", "entangled_input_product_scenario", "exact_bound",
    "generalized_bell_basis", "kron", "linalg", "maximally_entangled_ket",
    "maximally_entangled_state", "maximize_over_channels", "meb_scenario", "mub_bases",
    "mub_meb_pair_2qubit", "mub_state_bound", "objective_operator", "operator_norm",
    "partial_trace", "probability", "qubit_meb_optimizer", "sample_run", "scenario_report",
    "scenarios", "state_measurement_scenario", "tester_from_test", "testers",
    "tightness_check", "trivial_bound", "upper_bound", "upsilon_dual_apply",
]


def test_public_names_are_pinned():
    assert sorted(testerbounds.__all__) == PUBLIC


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def traced_attributes(source: str) -> set[tuple[str, str]]:
    """(module, attribute) of each entry of the tracer's ``TARGETS`` table."""
    table = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return {(entry.elts[0].id, entry.elts[1].value) for entry in table.elts}


def untraced_shims(source: str, module: str, traced: set[tuple[str, str]]) -> list[str]:
    """Names a module imports on ``# noqa: F401`` lines that the tracer does not
    rebind in it: such an import serves nothing."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa: F401" in lines[alias.lineno - 1]
            and (module, alias.asname or alias.name) not in traced]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_noqa_imports_serve_the_tracer(path):
    traced = traced_attributes(TRACING.read_text())
    assert untraced_shims(path.read_text(), path.stem, traced) == []


def test_untraced_shim_is_caught():
    traced = traced_attributes(TRACING.read_text())
    assert ("bounds", "eig_hermitian") in traced
    source = ("from .linalg import eig_hermitian  # noqa: F401\n"
              "from .linalg import Ket  # noqa: F401\nfrom .linalg import kron\n")
    assert untraced_shims(source, "bounds", traced) == ["Ket"]
    assert untraced_shims(source, "cli", traced) == ["eig_hermitian", "Ket"]


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\nimport json\n"
              "from typing import Sequence\nfrom .linalg import Ket  # noqa: F401\n"
              "def f(x: 'Sequence') -> None:\n    pass\n")
    assert unused_imports(source) == ["line 2: json"]


RUNTIME = set(sys.stdlib_module_names) | {"numpy", "testerbounds"}


def imported_packages(source: str) -> set[str]:
    """Top-level packages a module imports; relative imports are the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", [*MODULES, MODULES[0].parent / "__init__.py"],
                         ids=lambda p: p.name)
def test_runtime_is_numpy_only(path):
    # scipy and the test-only packages may be installed, but the library must not need them
    assert imported_packages(path.read_text()) - RUNTIME == set()


def test_foreign_import_is_caught():
    source = ("from __future__ import annotations\nimport numpy.linalg\nimport json\n"
              "from scipy.linalg import cho_solve\nfrom .linalg import Ket\n")
    assert imported_packages(source) - RUNTIME == {"scipy"}
