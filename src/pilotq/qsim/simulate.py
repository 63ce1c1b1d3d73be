"""Dense state-vector execution: run, measure, sample.

States are numpy complex128 arrays of length 2**n in little-endian order
(bit q of the flat index = qubit q). A state vector costs 16 * 2**n bytes;
runs are refused when that does not fit strictly under the memory cap.

Gates are applied without BLAS, by elementwise numpy operations on one of
two layouts of the same memory. Matrix products would go through
OpenBLAS, which starts its own thread pool inside every agent worker
thread and oversubscribes the cores that the workers already share. Inner
products and norms are elementwise sums for the same reason.

- The half view, `state.reshape(-1, 2, 2**q)` for a gate on qubit q,
  serves every gate on qubit 6 or above, and every gate on a state of
  fewer than 4096 amplitudes. Diagonal gates scale one half in place,
  X-like gates swap the halves, and any other gate is a weighted sum of
  the two. CNOT and CZ are the X and Z kernels on the half where the
  control is 1. Each call's inner loop runs over 2**q contiguous
  amplitudes, which is long for a high qubit but only 1-32 for qubits
  0-5, where numpy's per-loop overhead made a gate cost up to five times
  what it costs on the top qubits.
- The row view, `state.reshape(-1, 64)`, serves a gate whose qubits are
  all below 6 on a state of at least 4096 amplitudes. Such a gate mixes
  amplitudes only within one row of 64, so one `np.take` with a cached
  64-entry bit-flip permutation pairs each amplitude with its partner, and
  elementwise products with 64-entry coefficient rows combine them: inner
  loops of 64 whatever the qubit. Its temporary is one state, like the
  half view's swap. On smaller states the two views cost about the same
  (within 25% either way at 256-1024 amplitudes), and a state of fewer
  than 64 amplitudes has no row to view.

`_apply` picks the layout, and every gate application goes through it.

run_circuit fuses gates: each wire's consecutive one-qubit gates are
multiplied into one 2x2, applied when a two-qubit gate touches that wire
or at the end of the circuit. The result is not bit-identical to applying
the gates one by one: the products round differently, by about 2e-16 per
amplitude. apply_gate and adjoint_sweep stay gate by gate.

apply_gate and apply_pauli are the one gate API, and work in place on a
single state or on a contiguous (B, 2**n) row stack, whose rows both views
fold into their outer axis. Callers that need the input afterwards copy it.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

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


_ROW_QUBITS = 6  # the row view serves gates on qubits 0-5
_ROW = 1 << _ROW_QUBITS  # amplitudes per row
_ROW_MIN_AMPS = 4096  # per state: smaller states stay on the half view


def _row_plan(qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(key, perm) over one row, for a gate on `qubits` (target last).

    The gate acts on amplitude i unless it has a control and i's control
    bit is 0. key[i] is the target bit of i, plus 2 where the gate acts.
    perm[i] is i with the target bit flipped where the gate acts, else i.
    """
    target = qubits[-1]
    key, perm = [], []
    for i in range(_ROW):
        acts = len(qubits) == 1 or (i >> qubits[0]) & 1
        key.append(2 * acts + ((i >> target) & 1))
        perm.append(i ^ (1 << target) if acts else i)
    return np.array(key), np.array(perm)


_ROW_PLANS = {
    qubits: _row_plan(qubits)
    for qubits in [(q,) for q in range(_ROW_QUBITS)]
    + [(c, t) for c in range(_ROW_QUBITS) for t in range(_ROW_QUBITS) if c != t]
}


def _apply_rows(rows: np.ndarray, m: list[list[complex]], qubits: tuple[int, ...]) -> None:
    """In place on (R, 64) rows: row[i] <- diag[i] * row[i] + off[i] * row[perm[i]].

    diag and off are looked up by key: the gate's coefficients fill entries
    2 and 3, and entries 0 and 1, where a controlled gate does not act, keep
    each amplitude as it is, through diag, or through off and perm[i] = i
    for X-like gates, whose diag is all zero.
    """
    (a, b), (c, d) = m
    key, perm = _ROW_PLANS[qubits]
    if b == 0 and c == 0:  # diagonal: one product
        if a != 1 or d != 1:
            rows *= np.array([1, 1, a, d])[key]
        return
    flipped = np.take(rows, perm, axis=1)
    if a == 0 and d == 0:  # X-like: a permutation, scaled unless b == c == 1
        if b != 1 or c != 1:
            flipped *= np.array([1, 1, b, c])[key]
        rows[...] = flipped
    else:
        flipped *= np.array([0, 0, b, c])[key]
        rows *= np.array([1, 1, a, d])[key]
        rows += flipped


def _apply(state: StateVector, m: list[list[complex]], qubits: tuple[int, ...]) -> None:
    """In place: the 2x2 `m` on qubits[-1], where qubits[0] is 1 if two are
    given. Every gate application goes through here, to the row view or the
    half view."""
    if state.shape[-1] >= _ROW_MIN_AMPS and max(qubits) < _ROW_QUBITS:
        _apply_rows(state.reshape(-1, _ROW), m, qubits)
    elif len(qubits) == 1:
        _apply_1q_view(state.reshape(-1, 2, 1 << qubits[0]), m, 1)
    else:
        control, target = qubits
        hi, lo = max(control, target), min(control, target)
        v = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if control == hi:
            _apply_1q_view(v[:, 1], m, 2)
        else:
            _apply_1q_view(v[:, :, :, 1], m, 1)


def _rows_of(gate) -> list[list[complex]]:
    """The matrix rows of a gate (of CNOT and CZ: on the target)."""
    return _FIXED_ROWS.get(gate.name) or _rotation_rows(gate.name, gate.param)


def _product(m: list[list[complex]], n: list[list[complex]]) -> list[list[complex]]:
    """The 2x2 product m @ n: n applied first, then m."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]


def apply_gate(state: StateVector, gate, *, adjoint: bool = False) -> None:
    """Apply `gate` (or its adjoint) in place to a state or a row stack."""
    m = _rows_of(gate)
    if adjoint:
        m = [[x.conjugate() for x in col] for col in zip(*m)]
    _apply(state, m, gate.qubits)


def apply_pauli(state: StateVector, letter: str, qubit: int) -> None:
    """Apply the Pauli X, Y or Z to `qubit` in place, on a state or a row stack."""
    _apply(state, _FIXED_ROWS[letter], (qubit,))


def zero_state(num_qubits: int) -> StateVector:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def run_circuit(circuit: Circuit, *, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> StateVector:
    """Apply the circuit to |0...0> and return the final state.

    Each wire's run of one-qubit gates is applied as one fused 2x2 when a
    two-qubit gate touches the wire, or at the end.
    """
    check_memory_cap(circuit.num_qubits, memory_cap_bytes)
    state = zero_state(circuit.num_qubits)
    pending: dict[int, list[list[complex]]] = {}
    for gate in circuit.gates:
        m = _rows_of(gate)
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            pending[q] = _product(m, pending[q]) if q in pending else m
            continue
        for q in gate.qubits:
            if q in pending:
                _apply(state, pending.pop(q), (q,))
        _apply(state, m, gate.qubits)
    for q, m in pending.items():
        _apply(state, m, (q,))
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


def counts_probabilities(counts: Mapping[str, int], num_qubits: int) -> np.ndarray:
    """Inverse of `sample`: counts keyed by `bitstring` as a probability vector."""
    freq = np.zeros(2**num_qubits)
    for bits, n in counts.items():
        if len(bits) != num_qubits or not set(bits) <= {"0", "1"}:
            raise ValidationError(f"count key {bits!r} is not a {num_qubits}-bit string")
        if n < 0:
            raise ValidationError(f"count {n} for {bits!r} is negative")
        freq[int(bits[::-1], 2)] += n
    total = freq.sum()
    if total == 0:
        raise ValidationError("counts hold zero shots")
    return freq / total
