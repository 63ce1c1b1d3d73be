"""Simulator checked against the dense-matrix oracle in helpers.py."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ORACLE_FIXED,
    bitstring,
    gate_to_matrix,
    observable_matrix,
    oracle_expectation,
    oracle_rotation,
    oracle_run,
    parameters,
    pauli_string_matrix,
)
from pilotq.backends import simulate_readout
from pilotq.errors import MemoryCapExceeded, ValidationError
from pilotq.qsim import simulate
from pilotq.qsim.circuit import (
    GATE_NAMES,
    ROTATION_GATES,
    Circuit,
    Gate,
    PauliObservable,
    efficient_su2,
    random_circuit,
    sel_circuit,
)
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    apply_gate,
    check_memory_cap,
    counts_probabilities,
    expectation,
    memory_bytes,
    pauli_inner,
    probabilities,
    run_circuit,
    sample,
    zero_state,
)


@pytest.mark.parametrize("name", ["H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ"])
@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_single_gate_application_matches_embedding(name, qubit):
    n = 3
    rng = np.random.default_rng(qubit + len(name))
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    param = 1.234 if name.startswith("R") else None
    gate = Gate(name, (qubit,), param)
    got = state.copy()
    apply_gate(got, gate)
    want = gate_to_matrix(gate, n) @ state
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
@pytest.mark.parametrize("name", ["CNOT", "CZ"])
def test_two_qubit_gates_match_index_constructed_matrices(name, pair):
    n = 3
    rng = np.random.default_rng(sum(pair))
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    gate = Gate(name, pair)
    got = state.copy()
    apply_gate(got, gate)
    want = gate_to_matrix(gate, n) @ state
    assert np.allclose(got, want, atol=1e-12)


# --- both layouts against a tensordot oracle ----------------------------------------
#
# A state of 7 or 13 qubits has rows of 64 amplitudes, so gates on qubits 0-5 take
# the row view and gates on qubits 6 and up the half view; a (3, 2**n) stack takes
# the same.

WIDE = 13
LAYOUT_WIDTHS = (7, WIDE)
ONE_QUBIT_GATES = ["H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ"]


def _tensordot_oracle(states: np.ndarray, gate: Gate, adjoint: bool = False) -> np.ndarray:
    """The gate on every row of `states` (B, 2**n) by one dense tensordot.

    Axis 1 + (n - 1 - q) of the (B, 2, ..., 2) tensor holds qubit q.
    """
    b, n = states.shape[0], int(math.log2(states.shape[1]))
    if gate.name in ORACLE_FIXED:
        m = ORACLE_FIXED[gate.name]
    elif gate.name == "CNOT":
        m = ORACLE_FIXED["X"]
    elif gate.name == "CZ":
        m = ORACLE_FIXED["Z"]
    else:
        m = oracle_rotation(gate.name, gate.param)
    if len(gate.qubits) == 2:  # control, target: |0><0| x I + |1><1| x m
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2] = np.eye(2)
        full[2:, 2:] = m
        m = full.reshape(2, 2, 2, 2)
    if adjoint:
        k = len(gate.qubits)
        m = m.reshape(2**k, 2**k).conj().T.reshape((2,) * 2 * k)
    axes = [1 + n - 1 - q for q in gate.qubits]
    psi = states.reshape((b,) + (2,) * n)
    out = np.tensordot(m, psi, axes=(list(range(len(axes), 2 * len(axes))), axes))
    return np.moveaxis(out, list(range(len(axes))), axes).reshape(b, 2**n)


def _random_states(rows: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _check_layouts(n, gates, seed):
    for rows in (None, 3):  # one state, then a (3, 2**n) row stack
        states = _random_states(rows or 1, n, seed)
        for gate in gates:
            for adjoint in (False, True):
                got = states.copy() if rows else states[0].copy()
                apply_gate(got, gate, adjoint=adjoint)
                want = _tensordot_oracle(states, gate, adjoint)
                assert np.allclose(got.reshape(want.shape), want, rtol=0, atol=1e-12), (gate, rows)


@pytest.mark.parametrize("name", ONE_QUBIT_GATES)
def test_every_one_qubit_gate_on_every_wide_qubit_matches_tensordot(name):
    param = 0.731 if name.startswith("R") else None
    for n in LAYOUT_WIDTHS:
        _check_layouts(n, [Gate(name, (q,), param) for q in range(n)], seed=len(name))


@pytest.mark.parametrize("name", ["CNOT", "CZ"])
def test_controlled_gates_on_every_ordered_wide_pair_match_tensordot(name):
    for n in LAYOUT_WIDTHS:
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        _check_layouts(n, [Gate(name, pair) for pair in pairs], seed=len(name))


def _gate_by_gate(circuit: Circuit) -> np.ndarray:
    state = zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


@pytest.mark.parametrize("n", [5, 6, WIDE])
def test_fused_run_circuit_matches_gate_by_gate_application(n):
    gates = [
        Gate("H", (0,)), Gate("H", (1,)), Gate("H", (2,)), Gate("H", (n - 1,)),
        Gate("T", (0,)), Gate("S", (0,)), Gate("Z", (0,)), Gate("RZ", (0,), 0.4),  # diagonal run
        Gate("CNOT", (0, 1)),
        Gate("H", (2,)), Gate("H", (2,)),  # H.H: an identity only up to rounding
        Gate("CZ", (2, 1)),
        Gate("RX", (3,), 1.1), Gate("T", (3,)), Gate("CNOT", (3, n - 1)),
        Gate("RY", (1,), 0.3), Gate("X", (1,)), Gate("S", (1,)),  # still pending at the end
    ]
    for circuit in (Circuit(n, tuple(gates)), random_circuit(n, 10, seed=n)):
        got, want = run_circuit(circuit), _gate_by_gate(circuit)
        assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 7))
def test_every_gate_kind_in_run_circuit_matches_gate_by_gate_application(n):
    # run_circuit keeps states of at most 2**_SMALL_QUBITS amplitudes as lists; 6 qubits
    # is the first width on numpy views. A CZ after each one-qubit gate applies that gate
    # on its own rather than fused with the next one on its wire.
    assert simulate._SMALL_QUBITS == 5
    gates = [Gate("H", (q,)) for q in range(n)] + [Gate("RY", (q,), 0.3 + 0.4 * q) for q in range(n)]
    for name in ONE_QUBIT_GATES:
        for q in range(n):
            gates.append(Gate(name, (q,), 0.9 if name.startswith("R") else None))
            if n > 1:
                gates.append(Gate("CZ", (q, (q + 1) % n)))
    gates += [Gate(name, (c, t)) for name in ("CNOT", "CZ") for c in range(n) for t in range(n) if c != t]
    circuit = Circuit(n, tuple(gates))
    assert np.max(np.abs(run_circuit(circuit) - _gate_by_gate(circuit))) <= 1e-15


def test_run_circuit_applies_each_wire_run_once(monkeypatch):
    calls = []
    apply = simulate._apply

    def counted(state, m, qubits):
        calls.append(qubits)
        apply(state, m, qubits)

    monkeypatch.setattr(simulate, "_apply", counted)
    gates = [Gate("H", (0,)), Gate("T", (0,)), Gate("RX", (1,), 0.2), Gate("CNOT", (0, 2))]
    gates += [Gate("S", (0,)), Gate("H", (0,)), Gate("Y", (1,))]
    run_circuit(Circuit(3, tuple(gates)))
    assert calls == [(0,), (0, 2), (1,), (0,)]


# --- chunked kernels ------------------------------------------------------------------
#
# With 64-amplitude chunks, states of 10-12 qubits take every chunked path that
# states above 16 qubits take with the default chunk: gates inside a chunk, gates
# on a high qubit, and CNOT/CZ controlled from above or below the chunk boundary,
# with the control inside a block's run (qubits 0-4) or fixed across it (5 up).

SMALL_CHUNK = 2**6


def _boundary_pairs(n: int) -> list[tuple[int, int]]:
    wires = (0, 3, 4, 5, 6, 7, n - 1)
    return [(a, b) for a in wires for b in wires if a != b]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_small_chunks_give_bit_identical_run_circuit_states(n, monkeypatch):
    layers = list(random_circuit(n, 4, seed=n).gates)
    crossing = [Gate(name, pair) for pair in _boundary_pairs(n) for name in ("CNOT", "CZ")]
    ones = [
        Gate(name, (q,), 0.9 if name.startswith("R") else None)
        for q in range(n)
        for name in ONE_QUBIT_GATES
    ]
    circuit = Circuit(n, tuple(layers + crossing + ones + crossing[::-1] + layers))
    want = run_circuit(circuit)
    monkeypatch.setattr(simulate, "_CHUNK", SMALL_CHUNK)
    assert np.array_equal(run_circuit(circuit), want)


def test_small_chunks_give_bit_identical_row_stacks(monkeypatch):
    n = 11
    gates = [Gate(name, pair) for pair in _boundary_pairs(n) for name in ("CNOT", "CZ")]
    gates += [
        Gate(name, (q,), 0.4 if name.startswith("R") else None)
        for q in range(n)
        for name in ONE_QUBIT_GATES
    ]
    want = _random_states(3, n, seed=5)
    got = want.copy()
    for gate in gates:
        apply_gate(want, gate)
    monkeypatch.setattr(simulate, "_CHUNK", SMALL_CHUNK)
    for gate in gates:
        apply_gate(got, gate)
    assert np.array_equal(got, want)


def test_adjoint_application_inverts_the_gate():
    n = 2
    state = zero_state(n)
    gate = Gate("RX", (1,), 0.7)
    out = state.copy()
    apply_gate(out, gate)
    assert not np.allclose(out, state)
    apply_gate(out, gate, adjoint=True)
    assert np.allclose(out, state, atol=1e-12)
    # every gate name, on a 3-qubit state and on a row stack
    rng = np.random.default_rng(3)
    for state in (rng.normal(size=8) + 1j * rng.normal(size=8), rng.normal(size=(4, 8)) + 0j):
        for name in sorted(GATE_NAMES):
            qubits = (2, 0) if name in ("CNOT", "CZ") else (1,)
            gate = Gate(name, qubits, 0.7 if name in ROTATION_GATES else None)
            out = state.copy()
            apply_gate(out, gate)
            apply_gate(out, gate, adjoint=True)
            assert np.allclose(out, state, atol=1e-12), name


def test_rotation_matrices_match_the_oracle():
    for name in sorted(ROTATION_GATES):
        for theta in (0.0, math.pi / 3, math.pi, 2 * math.pi, -1.2):
            matrix = np.array(Gate(name, (0,), theta).matrix).reshape(2, 2)
            assert np.allclose(matrix, oracle_rotation(name, theta), atol=1e-15), (name, theta)


def test_a_gate_matrix_is_left_out_of_equality_hash_and_repr():
    gate, other = Gate("RY", (1,), 0.3, 0), Gate("RY", (1,), 0.3, 0)
    object.__setattr__(other, "matrix", (1, 0, 0, 1))
    assert gate == other
    assert hash(gate) == hash(other)
    assert repr(gate) == repr(other) == "Gate(name='RY', qubits=(1,), param=0.3, param_index=0)"


@pytest.mark.parametrize("seed", range(20))
def test_random_circuits_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    depth = int(rng.integers(0, 13))
    circ = random_circuit(n, depth, seed=seed + 100)
    got = run_circuit(circ)
    want = oracle_run(circ)
    assert np.allclose(got, want, atol=1e-12)


def test_bell_state_amplitudes():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    state = run_circuit(circ)
    s = 1 / math.sqrt(2)
    assert np.allclose(state, [s, 0, 0, s], atol=1e-12)


def test_ghz_probabilities_concentrate_on_the_two_ends():
    n = 4
    gates = [Gate("H", (0,))] + [Gate("CNOT", (i, i + 1)) for i in range(n - 1)]
    probs = probabilities(run_circuit(Circuit(n, tuple(gates))))
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.sum(probs[1:-1]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_expectation_matches_the_dense_observable(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    circ = random_circuit(n, 5, seed=seed)
    state = run_circuit(circ)
    letters = "IXYZ"
    terms = tuple(
        (float(rng.uniform(-2, 2)), "".join(rng.choice(list(letters), size=n)))
        for _ in range(int(rng.integers(1, 4)))
    )
    obs = PauliObservable(terms=terms)
    assert expectation(state, obs) == pytest.approx(oracle_expectation(state, obs), abs=1e-10)


@pytest.mark.parametrize("chunk", [None, 2**3])
def test_streaming_expectation_matches_the_dense_observable(chunk, monkeypatch):
    if chunk:  # 8-amplitude blocks: qubits 3-5 pair and sign whole blocks
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
    state = run_circuit(random_circuit(6, 6, seed=4))
    for terms in (
        ((1.0, "IIIIII"),),
        ((0.5, "ZIIIII"), (-1.25, "IIIIIZ"), (2.0, "IZZIZI")),
        ((0.7, "XIIIII"), (-0.4, "IIIIXI"), (1.5, "XIIXIX")),
        ((1.1, "YIIIII"), (0.3, "IIIIIY"), (-0.8, "YIYIII")),
        ((0.9, "XYZIZY"), (-1.7, "ZXIYIX"), (0.6, "IIIIII"), (1.3, "YYYYYY")),
    ):
        obs = PauliObservable(terms=terms)
        assert expectation(state, obs) == pytest.approx(oracle_expectation(state, obs), abs=1e-12)


@pytest.mark.parametrize("chunk", [None, 2**3])
def test_pauli_inner_sums_over_the_rows_of_a_stack(chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
    bra, ket = _random_states(3, 6, seed=1), _random_states(3, 6, seed=2)
    cases = ((), ((0, "X"),), ((5, "Y"),), ((2, "Z"), (4, "X")), ((0, "Y"), (3, "Y"), (5, "Z")))
    for paulis in cases:
        string = "".join(dict(paulis).get(q, "I") for q in range(6))
        dense = pauli_string_matrix(string)
        want = sum(np.vdot(b, dense @ k) for b, k in zip(bra, ket))
        assert pauli_inner(bra, ket, paulis) == pytest.approx(want, abs=1e-12)
        one = np.vdot(bra[1], dense @ ket[1])
        assert pauli_inner(bra[1], ket[1], paulis) == pytest.approx(one, abs=1e-12)


def test_expectation_of_z_on_one_is_minus_one():
    circ = Circuit(1, (Gate("X", (0,)),))
    state = run_circuit(circ)
    assert expectation(state, PauliObservable.single(1, {0: "Z"})) == pytest.approx(-1.0)


def test_expectation_rejects_width_mismatch():
    state = run_circuit(Circuit(2, ()))
    with pytest.raises(ValidationError):
        expectation(state, PauliObservable.single(3, {0: "Z"}))


# --- sampling -----------------------------------------------------------------------


def test_bell_sampling_is_supported_on_both_ends_only():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    state = run_circuit(circ)
    shots = 4096
    counts = sample(state, shots, seed=11)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == shots
    # 5 sigma on a fair binomial: 0.5 +- 5 * 0.5/sqrt(shots)
    assert abs(counts["00"] / shots - 0.5) < 5 * 0.5 / math.sqrt(shots)


def test_sampling_is_deterministic_per_seed():
    state = run_circuit(random_circuit(3, 4, seed=0))
    assert sample(state, 256, seed=5) == sample(state, 256, seed=5)
    assert sample(state, 256, seed=5) != sample(state, 256, seed=6)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValidationError):
        sample(zero_state(1), 0, seed=0)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_sample_draws_what_choice_draws_and_keys_them_by_bitstring(n):
    state = _random_states(1, n, seed=n)[0]
    for seed in range(6):
        draws = np.random.default_rng(seed).choice(state.size, size=777, p=probabilities(state))
        values, counts = np.unique(draws, return_counts=True)
        want = {bitstring(int(v), n): int(c) for v, c in zip(values, counts)}
        assert sample(state, 777, seed) == want


def test_sample_refuses_a_state_without_a_finite_positive_total():
    for amplitudes in ([0, 0, 0, 0], [np.nan, 0, 1, 0], [np.inf, 0, 1, 0]):
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(ValueError):
            sample(np.array(amplitudes, dtype=complex), 10, seed=0)


def test_bitstring_is_little_endian():
    # character q holds qubit q: index 2 = qubit 1 set
    assert bitstring(2, 2) == "01"
    assert bitstring(1, 3) == "100"
    assert bitstring(6, 3) == "011"


def test_deterministic_state_samples_exactly_one_bitstring():
    circ = Circuit(3, (Gate("X", (1,)),))  # |010> in qubit order 0,1,2
    counts = sample(run_circuit(circ), 50, seed=1)
    assert counts == {"010": 50}


def test_counts_decode_little_endian_and_reject_malformed_counts():
    probs = counts_probabilities({"10": 3, "01": 1}, 2)
    assert probs.tolist() == [0.0, 0.75, 0.25, 0.0]
    state = run_circuit(random_circuit(3, 4, seed=2))
    counts = sample(state, 1000, seed=5)
    want = np.zeros(8)
    for bits, n in counts.items():
        want[int(bits[::-1], 2)] = n / 1000
    assert np.array_equal(counts_probabilities(counts, 3), want)
    for bad in ({"0": 5, "1": 3}, {"2x": 1}, {"000": 1}, {"00": -1, "11": 2}, {"00": 0}, {}):
        with pytest.raises(ValidationError):
            counts_probabilities(bad, 2)


# --- memory caps -----------------------------------------------------------------------


def test_memory_bytes_is_sixteen_per_amplitude():
    assert memory_bytes(0) == 16
    assert memory_bytes(10) == 16 * 1024


def test_cap_is_a_strict_bound():
    cap = memory_bytes(4)
    check_memory_cap(3, cap)
    with pytest.raises(MemoryCapExceeded):
        check_memory_cap(4, cap)  # equal to the cap still refuses
    with pytest.raises(MemoryCapExceeded):
        check_memory_cap(3, cap, states=2)


def test_default_cap_admits_26_qubits_and_refuses_27():
    check_memory_cap(26, DEFAULT_MEMORY_CAP_BYTES)
    with pytest.raises(MemoryCapExceeded):
        check_memory_cap(27, DEFAULT_MEMORY_CAP_BYTES)


def _peak_bytes(work) -> int:
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_simulation_holds_its_state_plus_bounded_scratch():
    n = 17
    circuit = random_circuit(n, 10, seed=3)
    observable = PauliObservable.single(n, {0: "Z"})
    bound = memory_bytes(n) + 2 * 16 * simulate._CHUNK
    assert _peak_bytes(lambda: run_circuit(circuit)) <= bound
    assert _peak_bytes(lambda: simulate_readout(circuit, 0, 1, observable)) <= bound
    # sampling adds its probability vector, half a state
    assert _peak_bytes(lambda: simulate_readout(circuit, 1024, 1)) <= bound + memory_bytes(n) // 2


def test_run_circuit_enforces_the_cap():
    with pytest.raises(MemoryCapExceeded):
        run_circuit(Circuit(5, ()), memory_cap_bytes=memory_bytes(4))


# --- circuit and observable types ----------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: random_circuit(0, 1, seed=0), id="random_no_qubits"),
        pytest.param(lambda: random_circuit(2, -1, seed=0), id="random_negative_depth"),
        pytest.param(lambda: efficient_su2(2, -1, []), id="su2_negative_reps"),
        pytest.param(lambda: sel_circuit(0, 1, []), id="sel_no_qubits"),
    ],
)
def test_circuit_builders_reject_a_bad_shape(build):
    with pytest.raises(ValidationError, match="required"):
        build()


def test_gate_validation():
    with pytest.raises(ValidationError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValidationError):
        Gate("CNOT", (0,))
    with pytest.raises(ValidationError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValidationError):
        Gate("RX", (0,))  # rotation without an angle
    with pytest.raises(ValidationError):
        Gate("H", (0,), param=1.0)
    with pytest.raises(ValidationError):
        Gate("H", (0,), param_index=0)  # only rotations are trainable


def test_circuit_validation():
    with pytest.raises(ValidationError):
        Circuit(0, ())
    with pytest.raises(ValidationError):
        Circuit(1, (Gate("H", (1,)),))
    with pytest.raises(ValidationError):
        Circuit(1, (Gate("RX", (0,), 0.1, param_index=1),))  # indices must be dense


def test_circuit_range_error_names_the_first_offending_gate():
    gates = [Gate("H", (q % 4,)) for q in range(40)]
    for bad in (Gate("CNOT", (2, 4)), Gate("X", (-1,))):
        with pytest.raises(ValidationError) as err:
            Circuit(4, (*gates[:20], bad, Gate("H", (9,)), *gates[20:]))
        assert str(err.value) == f"gate {bad.name} on {bad.qubits} out of range for n=4"
    # param_index rules still apply past the range check
    with pytest.raises(ValidationError, match="param_index must be >= 0"):
        Circuit(4, (*gates, Gate("RX", (1,), 0.1, param_index=-1)))
    assert Circuit(4, (*gates, Gate("RX", (3,), 0.1, param_index=0))).num_params == 1


def test_parameters_and_bind():
    params = np.linspace(0.1, 0.6, 6)
    circ = sel_circuit(2, 1, params)
    assert circ.num_params == 6
    assert np.allclose(parameters(circ), params)
    rebound = circ.bind(params * 2)
    assert np.allclose(parameters(rebound), params * 2)
    assert np.allclose(parameters(circ), params)  # original untouched
    with pytest.raises(ValidationError):
        circ.bind(params[:-1])


def test_builder_parameter_counts():
    assert efficient_su2(3, 2, np.zeros(2 * 3 * 3)).num_params == 18
    assert sel_circuit(4, 2, np.zeros(3 * 4 * 2)).num_params == 24
    with pytest.raises(ValidationError):
        efficient_su2(3, 2, np.zeros(5))
    with pytest.raises(ValidationError):
        sel_circuit(4, 2, np.zeros(5))


def test_random_circuit_is_deterministic_per_seed():
    a = random_circuit(4, 6, seed=9)
    b = random_circuit(4, 6, seed=9)
    c = random_circuit(4, 6, seed=10)
    assert a == b
    assert a != c


def test_sel_circuit_entangles_beyond_nearest_neighbours():
    # layer 2 of a 4-qubit SEL uses range r=2 CNOTs
    circ = sel_circuit(4, 2, np.zeros(24))
    spans = {abs(g.qubits[0] - g.qubits[1]) for g in circ.gates if g.name == "CNOT"}
    assert spans == {1, 2, 3}  # r=1 ring wraps with a span-3 CNOT


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    depth=st.integers(0, 4),
    seed=st.integers(0, 1000),
)
def test_circuit_round_trips_through_json(n, depth, seed):
    circ = random_circuit(n, depth, seed)
    data = circ.to_json_dict()
    assert not any("matrix" in gate for gate in data["gates"])
    back = Circuit.from_json_dict(data)
    assert back == circ
    assert [g.matrix for g in back.gates] == [g.matrix for g in circ.gates]


def test_observable_validation_and_width():
    with pytest.raises(ValidationError):
        PauliObservable(terms=())
    with pytest.raises(ValidationError):
        PauliObservable(terms=((1.0, "A"),))
    with pytest.raises(ValidationError):
        PauliObservable(terms=((1.0, "ZZ"), (1.0, "Z")))
    # -1 must not index from the end and put the letter on qubit 3
    for qubit in (-1, 4):
        with pytest.raises(ValidationError, match=f"qubit {qubit} is outside 0..3"):
            PauliObservable.single(4, {qubit: "Z"})
    obs = PauliObservable.single(4, {1: "X", 3: "Y"}, coeff=-2.0)
    assert obs.terms == ((-2.0, "IXIY"),)
    assert obs.num_qubits == 4
    assert PauliObservable.from_json_dict(obs.to_json_dict()) == obs


def test_multi_term_observable_sums_against_the_oracle():
    state = run_circuit(random_circuit(3, 4, seed=2))
    obs = PauliObservable(terms=((0.5, "ZII"), (-1.5, "IXZ"), (2.0, "YYI")))
    dense = observable_matrix(obs)
    want = float(np.real(np.vdot(state, dense @ state)))
    assert expectation(state, obs) == pytest.approx(want, abs=1e-10)
