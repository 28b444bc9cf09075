"""Fine-grained uncertainty bounds for quantum-channel testers.

Each public name below is imported from its submodule on first use (PEP 562),
so ``import testerbounds.testers`` loads ``linalg`` and ``testers`` only, and
a command of the CLI loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the submodule each public name lives in; a submodule is public under its own name
_SOURCES = {
    "linalg": (
        "HermitianOperator", "Ket", "DimensionError", "PositivityError", "ValidationError",
        "basis_transpose", "check_close", "check_povm", "check_psd", "check_state",
        "eig_hermitian", "kron", "maximally_entangled_ket", "maximally_entangled_state",
        "operator_norm", "partial_trace",
    ),
    "testers": (
        "Channel", "Scenario", "Test", "Tester", "channel_constant", "channel_from_choi",
        "channel_from_kraus", "channel_from_unitary", "direct_probability", "probability",
        "sample_run", "tester_from_test", "upsilon_dual_apply",
    ),
    "channel_opt": ("ChannelOptResult", "SolverError", "maximize_over_channels"),
    "bounds": (
        "BoundReport", "bound_report", "closed_form_state_bound", "exact_bound",
        "mub_state_bound", "objective_operator", "qubit_meb_optimizer", "scenario_report",
        "tightness_check", "trivial_bound", "upper_bound",
    ),
    "scenarios": (
        "MEB", "ancilla_free_scenario", "entangled_input_product_scenario",
        "generalized_bell_basis", "meb_scenario", "mub_bases", "mub_meb_pair_2qubit",
        "state_measurement_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_SOURCES, *_MODULE_OF])


def __getattr__(name: str):
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
