"""Dense state-vector execution: run, measure, sample.

States are numpy complex128 arrays of length 2**n in little-endian order
(bit q of the flat index = qubit q). A state vector costs 16 * 2**n bytes;
runs are refused when that does not fit strictly under the memory cap.

Gates are applied without BLAS. A gate on qubit q acts on the two halves
of the view `state.reshape(-1, 2, 2**q)` by elementwise numpy operations:
diagonal gates scale one half in place, X-like gates swap the halves, and
any other gate is a weighted sum of the two. CNOT and CZ are the X and Z
kernels on the half where the control is 1. Matrix products would go
through OpenBLAS, which starts its own thread pool inside every agent
worker thread and oversubscribes the cores that the workers already share.
Inner products and norms are elementwise sums for the same reason. Each
numpy call on a large array releases the GIL, so a gate is kept to at most
three calls: every handoff costs time when many workers share few cores.

apply_gate and apply_pauli are the one gate API, and work in place on a
single state or on a contiguous (B, 2**n) row stack, whose rows the view
folds into its outer axis. Callers that need the input afterwards copy it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from pilotq.errors import MemoryCapExceeded, ValidationError
from pilotq.qsim.circuit import Circuit, PauliObservable

StateVector = np.ndarray

DEFAULT_MEMORY_CAP_BYTES = 2 * 1024**3  # 2 GiB: up to 26 qubits single-state

_SQ2 = 1.0 / math.sqrt(2.0)

# Matrix rows of each fixed gate. CNOT and CZ hold the rows of the X and Z
# they apply to the target on the half of the state where the control is 1.
_FIXED_ROWS = {
    "H": [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
}
_FIXED_ROWS["CNOT"], _FIXED_ROWS["CZ"] = _FIXED_ROWS["X"], _FIXED_ROWS["Z"]


def _rotation_rows(name: str, angle: float) -> list[list[complex]]:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if name == "RX":
        return [[c, -1j * s], [-1j * s, c]]
    if name == "RY":
        return [[c, -s], [s, c]]
    if name == "RZ":
        return [[cmath.exp(-0.5j * angle), 0], [0, cmath.exp(0.5j * angle)]]
    raise ValidationError(f"not a rotation gate: {name}")


def gate_matrix(name: str, param: float | None = None) -> np.ndarray:
    """The 2x2 matrix of a one-qubit gate (of CNOT and CZ: on the target)."""
    rows = _FIXED_ROWS[name] if name in _FIXED_ROWS else _rotation_rows(name, param)
    return np.array(rows, dtype=complex)


def memory_bytes(num_qubits: int) -> int:
    """Bytes needed for one dense state of num_qubits qubits."""
    return 16 * (2**num_qubits)


def check_memory_cap(num_qubits: int, cap_bytes: int, states: int = 1) -> None:
    need = states * memory_bytes(num_qubits)
    if need >= cap_bytes:
        raise MemoryCapExceeded(
            f"{states} state(s) of {num_qubits} qubits need {need} bytes; cap is {cap_bytes}"
        )


def _apply_1q_view(v: np.ndarray, m: list[list[complex]], axis: int) -> None:
    """In place: v[i] <- sum_j m[i][j] * v[j] along `axis`, the qubit's axis."""
    (a, b), (c, d) = m
    at = (slice(None),) * axis
    shape = (2,) + (1,) * (v.ndim - 1 - axis)
    if b == 0 and c == 0:  # diagonal: scale one half, or both in one pass
        if a != 1 and d != 1:
            v *= np.array([a, d]).reshape(shape)
        elif a != 1:
            v[at + (0,)] *= a
        elif d != 1:
            v[at + (1,)] *= d
        return
    flipped = v[at + (slice(None, None, -1),)]
    if a == 0 and d == 0:  # X-like: the halves trade places
        # numpy buffers an assignment whose source overlaps its target.
        v[...] = flipped if b == c == 1 else flipped * np.array([b, c]).reshape(shape)
    else:
        swapped = flipped * np.array([b, c]).reshape(shape)
        v *= np.array([a, d]).reshape(shape)
        v += swapped


def apply_gate(state: StateVector, gate, *, adjoint: bool = False) -> None:
    """Apply `gate` (or its adjoint) in place to a state or a row stack."""
    m = _FIXED_ROWS.get(gate.name) or _rotation_rows(gate.name, gate.param)
    if adjoint:
        m = [[x.conjugate() for x in col] for col in zip(*m)]
    if len(gate.qubits) == 1:
        _apply_1q_view(state.reshape(-1, 2, 1 << gate.qubits[0]), m, 1)
        return
    control, target = gate.qubits
    hi, lo = max(control, target), min(control, target)
    v = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        _apply_1q_view(v[:, 1], m, 2)
    else:
        _apply_1q_view(v[:, :, :, 1], m, 1)


def apply_pauli(state: StateVector, letter: str, qubit: int) -> None:
    """Apply the Pauli X, Y or Z to `qubit` in place, on a state or a row stack."""
    _apply_1q_view(state.reshape(-1, 2, 1 << qubit), _FIXED_ROWS[letter], 1)


def zero_state(num_qubits: int) -> StateVector:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def run_circuit(circuit: Circuit, *, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> StateVector:
    """Apply the circuit to |0...0> and return the final state."""
    check_memory_cap(circuit.num_qubits, memory_cap_bytes)
    state = zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate)
    norm = math.sqrt(inner(state, state).real)
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"state norm drifted to {norm}")
    return state


def apply_observable(state: StateVector, observable: PauliObservable) -> StateVector:
    """Return observable @ state (sum of Pauli-string applications)."""
    acc = np.zeros_like(state)
    for coeff, string in observable.terms:
        term = state.copy()
        for q, letter in enumerate(string):
            if letter != "I":
                apply_pauli(term, letter, q)
        term *= coeff
        acc += term
    return acc


def expectation(state: StateVector, observable: PauliObservable) -> float:
    num_qubits = int(round(math.log2(state.size)))
    if observable.num_qubits != num_qubits:
        raise ValidationError(
            f"observable is on {observable.num_qubits} qubits, state has {num_qubits}"
        )
    return inner(state, apply_observable(state, observable)).real


def inner(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> as an elementwise sum (np.vdot would call BLAS zdotc).

    Uses one temporary the size of a state.
    """
    products = bra.conj()
    products *= ket
    return complex(products.sum())


def probabilities(state: StateVector) -> np.ndarray:
    probs = np.abs(state) ** 2
    return probs / probs.sum()


def sample(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Measure all qubits `shots` times; keys are little-endian bitstrings."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    num_qubits = int(round(math.log2(state.size)))
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(state.size, size=shots, p=probabilities(state))
    values, counts = np.unique(outcomes, return_counts=True)
    return {bitstring(int(v), num_qubits): int(c) for v, c in zip(values, counts)}


def bitstring(index: int, num_qubits: int) -> str:
    """Little-endian rendering: character q is the state of qubit q."""
    return "".join(str((index >> q) & 1) for q in range(num_qubits))
