"""Fine-grained uncertainty bounds for quantum-channel testers."""

__version__ = "0.1.0"

from .linalg import (
    HermitianOperator,
    Ket,
    DimensionError,
    PositivityError,
    ValidationError,
    basis_transpose,
    check_close,
    check_povm,
    check_psd,
    check_state,
    eig_hermitian,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    operator_norm,
    partial_trace,
)
from .testers import (
    Channel,
    Scenario,
    Test,
    Tester,
    channel_constant,
    channel_from_choi,
    channel_from_kraus,
    channel_from_unitary,
    direct_probability,
    probability,
    sample_run,
    tester_from_test,
    upsilon_dual_apply,
)
from .channel_opt import (
    ChannelOptResult,
    SolverError,
    maximize_over_channels,
)
from .bounds import (
    BoundReport,
    bound_report,
    closed_form_state_bound,
    exact_bound,
    mub_state_bound,
    objective_operator,
    qubit_meb_optimizer,
    scenario_report,
    tightness_check,
    trivial_bound,
    upper_bound,
)
from .scenarios import (
    MEB,
    ancilla_free_scenario,
    entangled_input_product_scenario,
    generalized_bell_basis,
    meb_scenario,
    mub_bases,
    mub_meb_pair_2qubit,
    state_measurement_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
