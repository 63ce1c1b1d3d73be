"""Simulator checked against the dense-matrix oracle in helpers.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ORACLE_FIXED,
    gate_to_matrix,
    observable_matrix,
    oracle_expectation,
    oracle_rotation,
    oracle_run,
)
from pilotq.errors import MemoryCapExceeded, ValidationError
from pilotq.qsim.circuit import (
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
    bitstring,
    check_memory_cap,
    counts_probabilities,
    expectation,
    gate_matrix,
    memory_bytes,
    probabilities,
    run_circuit,
    sample,
    zero_state,
)


def test_every_gate_matrix_is_unitary():
    rng = np.random.default_rng(3)
    for name in ("H", "X", "Y", "Z", "S", "T"):
        m = gate_matrix(name)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
    for name in ("RX", "RY", "RZ"):
        theta = float(rng.uniform(0, 2 * math.pi))
        m = gate_matrix(name, theta)
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
        assert np.allclose(m, oracle_rotation(name, theta), atol=1e-12)
    for name, mat in ORACLE_FIXED.items():
        assert np.allclose(gate_matrix(name), mat, atol=1e-12)


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


def test_adjoint_application_inverts_the_gate():
    n = 2
    state = zero_state(n)
    gate = Gate("RX", (1,), 0.7)
    out = state.copy()
    apply_gate(out, gate)
    assert not np.allclose(out, state)
    apply_gate(out, gate, adjoint=True)
    assert np.allclose(out, state, atol=1e-12)


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


def test_run_circuit_enforces_the_cap():
    with pytest.raises(MemoryCapExceeded):
        run_circuit(Circuit(5, ()), memory_cap_bytes=memory_bytes(4))


# --- circuit and observable types ----------------------------------------------------


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


def test_parameters_and_bind():
    params = np.linspace(0.1, 0.6, 6)
    circ = sel_circuit(2, 1, params)
    assert circ.num_params == 6
    assert np.allclose(circ.parameters, params)
    rebound = circ.bind(params * 2)
    assert np.allclose(rebound.parameters, params * 2)
    assert np.allclose(circ.parameters, params)  # original untouched
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
    assert Circuit.from_json_dict(circ.to_json_dict()) == circ


def test_observable_validation_and_width():
    with pytest.raises(ValidationError):
        PauliObservable(terms=())
    with pytest.raises(ValidationError):
        PauliObservable(terms=((1.0, "A"),))
    with pytest.raises(ValidationError):
        PauliObservable(terms=((1.0, "ZZ"), (1.0, "Z")))
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
