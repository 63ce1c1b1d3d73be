"""Wire cutting: the 8-term identity, plan structure, and reconstruction.

The density-matrix oracle below is built from scratch: explicit Pauli
matrices and stabilizer-state projectors, nothing imported from the module
under test beyond the term table itself.
"""

import math
import re

import numpy as np
import pytest

from helpers import local_desc, oracle_expectation, oracle_run, qpu_desc
from pilotq.cutting import (
    MEASURE_BASES,
    PREP_LABELS,
    WIRE_CUT_TERMS,
    CutPlan,
    clustered_circuit,
    find_cuts,
    fragment_values,
    generate_subexperiments,
    reconstruct,
    run_cut_workflow,
    sampling_overhead,
)
from pilotq.errors import (
    MissingFragmentValue,
    NoFeasiblePilot,
    NotCutFriendly,
    UnsupportedObservable,
    ValidationError,
    WidthExceeded,
)
from pilotq.manager import PilotManager
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable
from pilotq.qsim.simulate import expectation, probabilities, run_circuit, sample

# --- the 8-term identity, against first principles ----------------------------------

_P = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _ket(label: str) -> np.ndarray:
    s = 1 / math.sqrt(2)
    return {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([s, s], dtype=complex),
        "-": np.array([s, -s], dtype=complex),
        "+i": np.array([s, 1j * s], dtype=complex),
        "-i": np.array([s, -1j * s], dtype=complex),
    }[label]


def _prep_density(label: str) -> np.ndarray:
    k = _ket(label)
    return np.outer(k, k.conj())


def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_eight_term_table_reconstructs_any_density_matrix():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        rho = _random_density(rng)
        rebuilt = np.zeros((2, 2), dtype=complex)
        for term in WIRE_CUT_TERMS:
            rebuilt += term.coeff * np.trace(_P[term.measure] @ rho) * _prep_density(term.prep)
        assert np.max(np.abs(rebuilt - rho)) <= 1e-12


def test_table_shape_and_quasi_probability_norm():
    assert len(WIRE_CUT_TERMS) == 8
    assert {t.measure for t in WIRE_CUT_TERMS} == {"I", "Z", "X", "Y"}
    assert {t.prep for t in WIRE_CUT_TERMS} == set(PREP_LABELS)
    assert sum(abs(t.coeff) for t in WIRE_CUT_TERMS) == pytest.approx(4.0)


def test_prep_circuits_produce_their_labelled_states():
    from pilotq.cutting import _PREP_GATES

    for label in PREP_LABELS:
        circ = Circuit(1, tuple(Gate(name, (0,)) for name in _PREP_GATES[label]))
        state = run_circuit(circ)
        fidelity = abs(np.vdot(_ket(label), state)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_basis_rotations_diagonalize_their_pauli():
    from pilotq.cutting import _BASIS_ROTATIONS

    for basis in MEASURE_BASES:
        rot = np.eye(2, dtype=complex)
        for name in _BASIS_ROTATIONS[basis]:
            from pilotq.qsim.simulate import gate_matrix

            rot = gate_matrix(name) @ rot
        # R P R^dag must be Z: rotated pauli measures in the computational basis
        assert np.allclose(rot @ _P[basis] @ rot.conj().T, _P["Z"], atol=1e-12)


def test_sampling_overhead_law():
    for k in range(5):
        assert sampling_overhead(k) == 16.0**k


# --- plan structure -------------------------------------------------------------------


def test_find_cuts_splits_a_two_cluster_chain():
    circ = clustered_circuit([3, 3], reps=1, seed=5)
    obs = PauliObservable.single(6, {0: "Z", 5: "Z"})
    plan = find_cuts(circ, obs, max_width=4)
    assert plan.num_cuts == 1
    assert len(plan.fragments) == 2
    up, down = plan.fragments
    assert up.width == 3
    assert down.width == 4  # cluster plus the incoming cut wire
    (cut,) = plan.cuts
    assert cut.original_qubit == 2
    assert cut.upstream_wire == 2
    assert cut.downstream_wire == 0
    assert up.letters == {0: "Z"}
    assert down.letters == {3: "Z"}  # original qubit 5 is local wire 3
    assert down.qubit_map[0] == 2  # the fresh wire continues original qubit 2
    assert plan.max_fragment_width == 4
    assert plan.sampling_overhead == 16.0


def test_letter_on_the_cut_wire_moves_downstream():
    circ = clustered_circuit([2, 2], reps=1, seed=1)
    obs = PauliObservable.single(4, {1: "X"})  # qubit 1 is the cut wire
    plan = find_cuts(circ, obs, max_width=3)
    up, down = plan.fragments
    assert up.letters == {}
    assert down.letters == {0: "X"}


def test_subexperiment_and_term_counts():
    cases = [
        ([2, 2], 1, 9, 8),
        ([2, 2, 2], 2, 27, 64),
        ([2, 2, 2, 2], 3, 45, 512),
    ]
    for sizes, cuts, n_subs, n_terms in cases:
        n = sum(sizes)
        circ = clustered_circuit(sizes, reps=1, seed=0)
        obs = PauliObservable.single(n, {0: "Z", n - 1: "Z"})
        plan = find_cuts(circ, obs, max_width=max(sizes) + 1)
        assert plan.num_cuts == cuts
        subs, terms = generate_subexperiments(plan)
        assert len(subs) == n_subs
        assert len(terms) == n_terms


def test_rejects_circuits_without_trailing_couplers():
    circ = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("H", (1,))))
    with pytest.raises(NotCutFriendly):
        find_cuts(circ, PauliObservable.single(2, {0: "Z"}), max_width=2)


def test_rejects_backward_couplers():
    circ = Circuit(3, (Gate("H", (0,)), Gate("CNOT", (2, 1))))
    with pytest.raises(NotCutFriendly):
        find_cuts(circ, PauliObservable.single(3, {0: "Z"}), max_width=3)


def test_rejects_body_gates_spanning_the_boundary():
    gates = (
        Gate("CNOT", (1, 2)),  # crosses the eventual boundary inside the body
        Gate("H", (0,)),
        Gate("CNOT", (1, 2)),
        Gate("CNOT", (1, 2)),
    )
    # trailing CNOT(1,2) marks a boundary at qubit 1; the body copy spans it
    with pytest.raises(NotCutFriendly):
        find_cuts(Circuit(4, gates), PauliObservable.single(4, {0: "Z"}), max_width=4)


def test_rejects_fragments_wider_than_the_budget():
    circ = clustered_circuit([4, 4], reps=1, seed=0)
    obs = PauliObservable.single(8, {0: "Z"})
    with pytest.raises(WidthExceeded):
        find_cuts(circ, obs, max_width=4)  # downstream needs 5 wires
    find_cuts(circ, obs, max_width=5)


def test_rejects_multi_term_observables_and_width_mismatch():
    circ = clustered_circuit([2, 2], reps=1, seed=0)
    multi = PauliObservable(terms=((1.0, "ZIII"), (1.0, "IZII")))
    with pytest.raises(UnsupportedObservable):
        find_cuts(circ, multi, max_width=3)
    with pytest.raises(ValidationError):
        find_cuts(circ, PauliObservable.single(3, {0: "Z"}), max_width=3)


def test_plan_round_trips_through_json():
    circ = clustered_circuit([2, 3], reps=1, seed=3)
    obs = PauliObservable.single(5, {0: "X", 4: "Y"})
    plan = find_cuts(circ, obs, max_width=4)
    assert CutPlan.from_json_dict(plan.to_json_dict()) == plan


# --- fragment values ------------------------------------------------------------------


def test_fragment_values_are_signed_probability_sums():
    circ = clustered_circuit([2, 2], reps=1, seed=7)
    obs = PauliObservable.single(4, {3: "Z"})
    plan = find_cuts(circ, obs, max_width=3)
    subs, _ = generate_subexperiments(plan)
    sub = subs[0]  # an upstream Z-basis run: provides both the I and Z keys
    probs = probabilities(run_circuit(sub.circuit))
    values = fragment_values(sub, probabilities=probs)
    assert len(values) == len(sub.value_keys)
    for key, mask in sub.value_keys:
        want = sum(
            p * (-1) ** bin(i & mask).count("1") for i, p in enumerate(probs)
        )
        assert values[key] == pytest.approx(want, abs=1e-12)
    # the mask-0 key (identity measurement, no observable letter upstream)
    # must evaluate to exactly 1: probabilities sum to one
    zero_mask = [k for k, m in sub.value_keys if m == 0]
    for key in zero_mask:
        assert values[key] == pytest.approx(1.0, abs=1e-12)


def test_fragment_values_from_counts_match_exact_in_the_limit():
    circ = clustered_circuit([2, 2], reps=1, seed=9)
    obs = PauliObservable.single(4, {0: "Z", 3: "Z"})
    plan = find_cuts(circ, obs, max_width=3)
    subs, _ = generate_subexperiments(plan)
    sub = subs[0]
    state = run_circuit(sub.circuit)
    exact = fragment_values(sub, probabilities=probabilities(state))
    sampled = fragment_values(sub, counts=sample(state, 200_000, seed=0))
    for key in exact:
        assert sampled[key] == pytest.approx(exact[key], abs=0.02)


def test_fragment_values_argument_contract():
    circ = clustered_circuit([2, 2], reps=1, seed=0)
    plan = find_cuts(circ, PauliObservable.single(4, {0: "Z"}), max_width=3)
    subs, _ = generate_subexperiments(plan)
    with pytest.raises(ValidationError):
        fragment_values(subs[0])
    with pytest.raises(ValidationError):
        fragment_values(subs[0], probabilities=[1.0], counts={"00": 1})
    with pytest.raises(ValidationError):
        fragment_values(subs[0], probabilities=[0.5, 0.5])  # wrong length


def test_fragment_values_reject_counts_of_another_width_or_alphabet():
    circ = clustered_circuit([2, 2], reps=1, seed=0)
    plan = find_cuts(circ, PauliObservable.single(4, {0: "Z"}), max_width=3)
    sub = generate_subexperiments(plan)[0][0]
    w = sub.circuit.num_qubits
    for bad in (
        {"0" * (w - 1): 5, "1" * (w - 1): 3},  # one wire short
        {"2" + "x" * (w - 1): 1},  # right width, wrong alphabet
        {"0" * w: -1, "1" * w: 2},  # a negative count
        {"0" * w: 0},  # zero shots
    ):
        with pytest.raises(ValidationError):
            fragment_values(sub, counts=bad)


def test_reconstruct_flags_missing_values():
    circ = clustered_circuit([2, 2], reps=1, seed=0)
    plan = find_cuts(circ, PauliObservable.single(4, {0: "Z"}), max_width=3)
    _, terms = generate_subexperiments(plan)
    with pytest.raises(MissingFragmentValue):
        reconstruct(terms, {})

    # every value but one of a middle fragment's: the gap must not read as 0
    circ = clustered_circuit([2, 2, 2], reps=1, seed=0)
    plan = find_cuts(circ, PauliObservable.single(6, {0: "Z", 5: "Z"}), max_width=3)
    subs, terms = generate_subexperiments(plan)
    values = {key: 0.5 for sub in subs for key, _ in sub.value_keys}
    gone = next(key for sub in subs if sub.fragment == 1 for key, _ in sub.value_keys)
    del values[gone]
    with pytest.raises(MissingFragmentValue, match=re.escape(gone)):
        reconstruct(terms, values)


# --- end-to-end equivalence ---------------------------------------------------------


def _exact_cut_value(circ, obs, max_width) -> float:
    plan = find_cuts(circ, obs, max_width)
    subs, terms = generate_subexperiments(plan)
    values = {}
    for sub in subs:
        probs = probabilities(run_circuit(sub.circuit))
        values.update(fragment_values(sub, probabilities=probs))
    return reconstruct(terms, values)


@pytest.mark.parametrize("sizes,seed", [([3, 3], 0), ([2, 3, 2], 1), ([4, 2], 2), ([2, 2, 2, 2], 3)])
def test_exact_reconstruction_equals_uncut_expectation(sizes, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    circ = clustered_circuit(sizes, reps=1, seed=seed)
    letters = {
        int(q): str(rng.choice(["X", "Y", "Z"]))
        for q in rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    }
    obs = PauliObservable.single(n, letters, coeff=float(rng.uniform(-2, 2)))
    got = _exact_cut_value(circ, obs, max_width=max(sizes) + 1)
    want = expectation(run_circuit(circ), obs)
    # also cross-check the uncut value against the dense oracle
    assert want == pytest.approx(oracle_expectation(oracle_run(circ), obs), abs=1e-10)
    assert got == pytest.approx(want, abs=1e-9)


def test_ten_cuts_reconstruct_exactly():
    # 8^10 terms: reconstruction must contract the chain, not list the terms
    circ = clustered_circuit([2] * 11, reps=2)
    obs = PauliObservable.single(22, {0: "Z", 21: "Z"})
    plan = find_cuts(circ, obs, max_width=3)
    subs, terms = generate_subexperiments(plan)
    assert plan.num_cuts == 10
    assert len(subs) == 171
    assert len(terms) == 8**10
    values = {}
    for sub in subs:
        values.update(fragment_values(sub, probabilities=probabilities(run_circuit(sub.circuit))))
    assert reconstruct(terms, values) == pytest.approx(expectation(run_circuit(circ), obs), abs=1e-9)


def test_identity_observable_reconstructs_to_its_coefficient():
    circ = clustered_circuit([2, 2], reps=1, seed=4)
    obs = PauliObservable(terms=((1.5, "IIII"),))
    assert _exact_cut_value(circ, obs, max_width=3) == pytest.approx(1.5, abs=1e-9)


def test_shot_noise_shrinks_with_more_shots():
    circ = clustered_circuit([3, 3], reps=1, seed=11)
    obs = PauliObservable.single(6, {0: "Z", 5: "Z"})
    plan = find_cuts(circ, obs, max_width=4)
    subs, terms = generate_subexperiments(plan)
    exact = expectation(run_circuit(circ), obs)

    def run_with(shots, seed):
        values = {}
        for i, sub in enumerate(subs):
            state = run_circuit(sub.circuit)
            values.update(fragment_values(sub, counts=sample(state, shots, seed * 1000 + i)))
        return abs(reconstruct(terms, values) - exact)

    errs_small = [run_with(256, s) for s in range(20)]
    errs_big = [run_with(4096, s) for s in range(20)]
    assert np.median(errs_big) < np.median(errs_small)


# --- the managed workflow ------------------------------------------------------------


def test_workflow_runs_fragments_through_pilots_exactly():
    manager = PilotManager()
    try:
        manager.create_pilot(local_desc("cpu", cores=4))
        manager.wait_pilots_ready()
        circ = clustered_circuit([3, 2], reps=1, seed=21)
        obs = PauliObservable.single(5, {0: "Z", 4: "X"})
        result = run_cut_workflow(manager, circ, obs, max_width=4)
        assert result.num_cuts == 1
        assert result.num_subexperiments == 9
        assert result.sampling_overhead == 16.0
        assert result.abs_error <= 1e-9
        assert len(result.task_ids) == 9
        states = {manager.task(t).state.value for t in result.task_ids}
        assert states == {"DONE"}
    finally:
        manager.shutdown()


def test_workflow_sampled_mode_lands_near_the_oracle():
    manager = PilotManager()
    try:
        manager.create_pilot(qpu_desc("qpu", qubits=6, cores=4))
        manager.wait_pilots_ready()
        circ = clustered_circuit([2, 2], reps=1, seed=13)
        obs = PauliObservable.single(4, {0: "Z", 3: "Z"})
        result = run_cut_workflow(manager, circ, obs, max_width=3, shots=8192)
        assert result.abs_error is not None
        assert result.abs_error < 0.25  # stochastic but tightly bounded at 8k shots
    finally:
        manager.shutdown()


def test_workflow_refuses_without_a_feasible_pilot():
    manager = PilotManager()
    try:
        manager.create_pilot(qpu_desc("qpu", qubits=6, cores=2))
        circ = clustered_circuit([2, 2], reps=1, seed=0)
        obs = PauliObservable.single(4, {0: "Z"})
        with pytest.raises(NoFeasiblePilot):
            run_cut_workflow(manager, circ, obs, max_width=3, shots=0)  # exact needs classical
    finally:
        manager.shutdown()


def test_workflow_surfaces_fragment_failures():
    manager = PilotManager()
    try:
        manager.create_pilot(local_desc("cpu", cores=2))
        circ = clustered_circuit([2, 2], reps=1, seed=0)
        obs = PauliObservable.single(4, {0: "Z"})
        # an uncuttable request must fail through the same entry point
        hostile = Circuit(4, (Gate("CNOT", (1, 2)), Gate("H", (0,))))
        with pytest.raises(NotCutFriendly):
            run_cut_workflow(manager, hostile, obs, max_width=3)
    finally:
        manager.shutdown()
