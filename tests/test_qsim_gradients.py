"""Adjoint gradients checked against central finite differences.

central_fd below is the oracle: simulate at shifted angles and difference.
It exercises only run_circuit/expectation, never the adjoint sweep.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import gate_to_matrix, parameters
from pilotq.errors import MemoryCapExceeded, ValidationError
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, sel_circuit
from pilotq.qsim.gradients import adjoint_gradient, adjoint_sweep, ansatz_tables, table_gradient
from pilotq.qsim import simulate
from pilotq.qsim.simulate import (
    apply_gate,
    apply_observable,
    apply_unitary,
    expectation,
    memory_bytes,
    outer_sum,
    run_circuit,
)

FD_H = 1e-5


def central_fd(circuit, observable, h=FD_H) -> np.ndarray:
    base = parameters(circuit)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            expectation(run_circuit(circuit.bind(up)), observable)
            - expectation(run_circuit(circuit.bind(down)), observable)
        ) / (2 * h)
    return grad


def max_rel_err(adj: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(adj - fd))) / scale


def test_single_ry_at_half_pi_has_exact_gradient():
    circ = Circuit(1, (Gate("RY", (0,), np.pi / 2, param_index=0),))
    obs = PauliObservable.single(1, {0: "Z"})
    grad = adjoint_gradient(circ, obs)
    # <Z> = cos(theta), so the slope at pi/2 is exactly -1
    assert grad.shape == (1,)
    assert abs(grad[0] - (-1.0)) <= 1e-9


def test_ry_gradient_follows_minus_sine_everywhere():
    obs = PauliObservable.single(1, {0: "Z"})
    for theta in np.linspace(0, 2 * np.pi, 9):
        circ = Circuit(1, (Gate("RY", (0,), float(theta), param_index=0),))
        assert adjoint_gradient(circ, obs)[0] == pytest.approx(-np.sin(theta), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sel_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    layers = int(rng.integers(1, 3))
    params = rng.uniform(0, 2 * np.pi, 3 * n * layers)
    circ = sel_circuit(n, layers, params)
    letters = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in rng.choice(n, 2, replace=False)}
    obs = PauliObservable.single(n, letters)
    assert max_rel_err(adjoint_gradient(circ, obs), central_fd(circ, obs)) <= 1e-5


def test_gradient_of_multi_term_observable_is_the_sum():
    rng = np.random.default_rng(42)
    params = rng.uniform(0, 2 * np.pi, 18)
    circ = sel_circuit(3, 2, params)
    obs = PauliObservable(terms=((0.7, "ZIZ"), (-1.2, "XYI")))
    grad = adjoint_gradient(circ, obs)
    parts = sum(
        coeff * adjoint_gradient(circ, PauliObservable(terms=((1.0, string),)))
        for coeff, string in obs.terms
    )
    assert np.allclose(grad, parts, atol=1e-12)
    assert max_rel_err(grad, central_fd(circ, obs)) <= 1e-5


def test_gradient_ignores_untrainable_rotations():
    gates = (
        Gate("RY", (0,), 0.4),  # fixed angle: no param_index
        Gate("RY", (0,), 1.1, param_index=0),
    )
    circ = Circuit(1, gates)
    grad = adjoint_gradient(circ, PauliObservable.single(1, {0: "Z"}))
    assert grad.shape == (1,)
    # d/dtheta cos(0.4 + theta) at theta=1.1
    assert grad[0] == pytest.approx(-np.sin(1.5), abs=1e-12)


def test_circuit_without_parameters_has_empty_gradient():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    grad = adjoint_gradient(circ, PauliObservable.single(2, {0: "Z"}))
    assert grad.shape == (0,)


def test_shared_parameter_circuits_are_rejected_by_construction():
    # two gates reusing param_index 0 would double-count; Circuit forbids the
    # other malformation (gaps), and reuse collapses num_params to 1
    gates = (
        Gate("RY", (0,), 0.3, param_index=0),
        Gate("RY", (1,), 0.3, param_index=0),
    )
    circ = Circuit(2, gates)
    obs = PauliObservable.single(2, {0: "Z", 1: "Z"})
    # the adjoint accumulates both contributions, matching FD on the shared angle
    assert max_rel_err(adjoint_gradient(circ, obs), central_fd(circ, obs)) <= 1e-7


def test_gradient_needs_three_states_under_the_cap():
    params = np.zeros(3 * 4 * 1)
    circ = sel_circuit(4, 1, params)
    obs = PauliObservable.single(4, {0: "Z"})
    adjoint_gradient(circ, obs, memory_cap_bytes=4 * memory_bytes(4))
    with pytest.raises(MemoryCapExceeded):
        adjoint_gradient(circ, obs, memory_cap_bytes=3 * memory_bytes(4))


def test_gradient_holds_the_three_states_it_is_capped_for():
    n = 17
    gates = (Gate("H", (0,)), Gate("RX", (0,), 0.3, param_index=0), Gate("CNOT", (0, n - 1)))
    gates += (Gate("RY", (n - 1,), 0.7, param_index=1), Gate("RZ", (3,), 0.2, param_index=2))
    obs = PauliObservable(terms=((1.0, "Z" + "I" * (n - 1)), (0.5, "I" * (n - 1) + "X")))
    tracemalloc.start()
    try:
        adjoint_gradient(Circuit(n, gates), obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * memory_bytes(n) + 2 * 16 * simulate._CHUNK


def test_gradient_rejects_width_mismatch():
    circ = sel_circuit(2, 1, np.zeros(6))
    with pytest.raises(ValidationError):
        adjoint_gradient(circ, PauliObservable.single(3, {0: "Z"}))


def _tables_circuit() -> Circuit:
    """Three qubits, every rotation kind, an untrainable angle and a shared one."""
    gates = (
        Gate("H", (0,)),
        Gate("RX", (0,), 0.3, param_index=0),
        Gate("CNOT", (0, 2)),
        Gate("RY", (2,), 0.7, param_index=1),
        Gate("RZ", (1,), 0.4),
        Gate("CZ", (1, 2)),
        Gate("RZ", (1,), -1.1, param_index=2),
        Gate("RY", (0,), 0.9, param_index=1),
        Gate("CNOT", (2, 1)),
    )
    return Circuit(3, gates)


def test_ansatz_tables_hold_the_unitary_and_generator_conjugates():
    circ = _tables_circuit()
    unitary, tables = ansatz_tables(circ)
    mats = [gate_to_matrix(g, 3) for g in circ.gates]
    oracle = np.eye(8, dtype=complex)
    for m in mats:
        oracle = m @ oracle
    assert np.max(np.abs(unitary - oracle)) <= 1e-12
    expected = np.zeros((3, 8, 8), dtype=complex)
    for k, gate in enumerate(circ.gates):
        if gate.param_index is None:
            continue
        after = np.eye(8, dtype=complex)
        for m in mats[k + 1 :]:
            after = m @ after
        pauli = gate_to_matrix(Gate(gate.generator, gate.qubits), 3)
        expected[gate.param_index] += after @ pauli @ after.conj().T
    assert tables.shape == (3, 8, 8)
    assert np.max(np.abs(tables - expected)) <= 1e-12


def test_table_gradient_matches_the_sweep_on_a_row_stack():
    circ = _tables_circuit()
    unitary, tables = ansatz_tables(circ)
    rng = np.random.default_rng(4)
    kets = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    kets /= np.sqrt((np.abs(kets) ** 2).sum(axis=1, keepdims=True))
    obs = PauliObservable(terms=((0.7, "ZIX"), (-1.2, "IYI")))
    ket = apply_unitary(unitary, kets)
    bra = apply_observable(ket, obs)
    swept = kets.copy()
    for gate in circ.gates:
        apply_gate(swept, gate)
    assert np.max(np.abs(ket - swept)) <= 1e-12
    want = adjoint_sweep(circ.gates, swept, apply_observable(swept, obs), circ.num_params)
    assert np.max(np.abs(table_gradient(tables, ket, bra) - want)) <= 1e-12
    single = run_circuit(circ)[None, :]
    grad = table_gradient(tables, single, apply_observable(single, obs))
    assert np.max(np.abs(grad - adjoint_gradient(circ, obs))) <= 1e-12


def test_row_blocks_do_not_change_the_contractions(monkeypatch):
    unitary, _ = ansatz_tables(_tables_circuit())
    rng = np.random.default_rng(9)
    kets = rng.normal(size=(70, 8)) + 1j * rng.normal(size=(70, 8))
    bras = rng.normal(size=(70, 8)) + 1j * rng.normal(size=(70, 8))
    whole = apply_unitary(unitary, kets), outer_sum(bras, kets)
    monkeypatch.setattr(simulate, "_CHUNK", 2**7)  # blocks of two rows
    blocked = apply_unitary(unitary, kets), outer_sum(bras, kets)
    assert np.array_equal(whole[0], blocked[0])
    assert np.max(np.abs(whole[1] - blocked[1])) <= 1e-12
    assert np.max(np.abs(whole[1] - bras.conj().T @ kets)) <= 1e-12


def test_ansatz_tables_are_capped_by_their_size():
    circ = sel_circuit(3, 1, np.zeros(9))
    # 9 tables, the stack, its conjugate and P copy, and an 8-state Gram product
    need = (9 + 3 + 8) * 8 * memory_bytes(3)
    ansatz_tables(circ, memory_cap_bytes=need + 1)
    with pytest.raises(MemoryCapExceeded):
        ansatz_tables(circ, memory_cap_bytes=need)
