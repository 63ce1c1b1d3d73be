"""Dense little-endian state-vector simulator with adjoint gradients."""

from pilotq.qsim.circuit import (
    Circuit,
    Gate,
    PauliObservable,
    efficient_su2,
    random_circuit,
    sel_circuit,
)
from pilotq.qsim.gradients import adjoint_gradient
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    StateVector,
    check_memory_cap,
    expectation,
    memory_bytes,
    probabilities,
    run_circuit,
    sample,
    sim_qubit_capacity,
)

__all__ = [
    "Circuit",
    "Gate",
    "PauliObservable",
    "StateVector",
    "DEFAULT_MEMORY_CAP_BYTES",
    "adjoint_gradient",
    "check_memory_cap",
    "efficient_su2",
    "expectation",
    "memory_bytes",
    "probabilities",
    "random_circuit",
    "run_circuit",
    "sample",
    "sel_circuit",
    "sim_qubit_capacity",
]
