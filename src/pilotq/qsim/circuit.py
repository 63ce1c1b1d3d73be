"""Circuit and observable types plus the stock circuit builders.

Conventions used throughout the simulator:

* Qubits are numbered 0..n-1 and basis states are little-endian: bit q of a
  basis index holds the state of qubit q. Bitstrings written out as text put
  qubit 0 in the first character.
* Rotation gates (RX/RY/RZ) carry an angle in radians in ``param``. A gate is
  trainable iff ``param_index`` is set; param_index values must cover
  0..num_params-1 with no gaps.
* `_GATES` is the one gate table: each gate's arity and its fixed 2x2 or,
  for a rotation exp(-i param P / 2), its generator Pauli P. A `Gate` holds
  its 2x2 as `matrix`, flat (m00, m01, m10, m11), computed once when built;
  CNOT's and CZ's is the X or Z they apply to the target.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from pilotq.codec import JsonRecord
from pilotq.errors import ValidationError

_SQ2 = 1.0 / math.sqrt(2.0)
_PAULI = {"X": (0, 1, 1, 0), "Y": (0, -1j, 1j, 0), "Z": (1, 0, 0, -1)}

# name: (arity, fixed 2x2 as (m00, m01, m10, m11), or a rotation's generator Pauli)
_GATES = {
    "H": (1, (_SQ2, _SQ2, _SQ2, -_SQ2)),
    "X": (1, _PAULI["X"]),
    "Y": (1, _PAULI["Y"]),
    "Z": (1, _PAULI["Z"]),
    "S": (1, (1, 0, 0, 1j)),
    "T": (1, (1, 0, 0, cmath.exp(1j * math.pi / 4))),
    "RX": (1, "X"),
    "RY": (1, "Y"),
    "RZ": (1, "Z"),
    "CNOT": (2, _PAULI["X"]),
    "CZ": (2, _PAULI["Z"]),
}
GATE_NAMES = frozenset(_GATES)
ROTATION_GATES = frozenset(name for name, (_, m) in _GATES.items() if type(m) is str)


def _rotation_matrix(pauli: str, angle: float) -> tuple[complex, ...]:
    """exp(-i angle P / 2) = cos(angle/2) I - i sin(angle/2) P, flat."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return tuple(c * i + -1j * s * p for i, p in zip((1, 0, 0, 1), _PAULI[pauli]))


@dataclass(frozen=True)
class Gate(JsonRecord):
    """One gate application: name, target qubit(s), optional angle. matrix
    is derived: the flat 2x2 the simulator applies to qubits[-1]."""

    name: str
    qubits: tuple[int, ...]
    param: float | None = None
    param_index: int | None = None
    matrix: tuple[complex, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.name not in GATE_NAMES:
            raise ValidationError(f"unknown gate name: {self.name!r}")
        want, matrix = _GATES[self.name]
        if len(self.qubits) != want:
            raise ValidationError(f"{self.name} takes {want} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"{self.name} qubits must be distinct: {self.qubits}")
        if self.name in ROTATION_GATES:
            if self.param is None:
                raise ValidationError(f"{self.name} requires an angle")
            object.__setattr__(self, "param", float(self.param))
            matrix = _rotation_matrix(matrix, self.param)
        else:
            if self.param is not None:
                raise ValidationError(f"{self.name} takes no angle")
            if self.param_index is not None:
                raise ValidationError(f"{self.name} cannot be trainable")
        object.__setattr__(self, "matrix", matrix)

    @property
    def generator(self) -> str | None:
        """The Pauli letter P of a rotation exp(-i param P / 2), else None."""
        return _GATES[self.name][1] if self.name in ROTATION_GATES else None


@dataclass(frozen=True)
class Circuit(JsonRecord):
    """An ordered gate list on num_qubits wires. num_params is derived."""

    num_qubits: int
    gates: tuple[Gate, ...]
    num_params: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValidationError("num_qubits must be >= 1")
        indices = []
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValidationError(f"gate {g.name} on {g.qubits} out of range for n={self.num_qubits}")
            if g.param_index is not None:
                if g.param_index < 0:
                    raise ValidationError("param_index must be >= 0")
                indices.append(g.param_index)
        num_params = max(indices) + 1 if indices else 0
        if indices and set(indices) != set(range(num_params)):
            raise ValidationError("param_index values must be dense 0..num_params-1")
        object.__setattr__(self, "num_params", num_params)

    def bind(self, params) -> "Circuit":
        """New circuit with trainable angles replaced by params[param_index]."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.num_params,):
            raise ValidationError(f"expected {self.num_params} parameters, got {params.shape}")
        gates = tuple(
            Gate(g.name, g.qubits, float(params[g.param_index]), g.param_index)
            if g.param_index is not None
            else g
            for g in self.gates
        )
        return Circuit(self.num_qubits, gates)


_PAULI_CHARS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliObservable(JsonRecord):
    """Weighted sum of Pauli strings. String position q addresses qubit q."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        norm = []
        for coeff, string in self.terms:
            if not string or not set(string) <= _PAULI_CHARS:
                raise ValidationError(f"bad Pauli string: {string!r}")
            norm.append((float(coeff), str(string)))
        if not norm:
            raise ValidationError("observable needs at least one term")
        if len({len(s) for _, s in norm}) != 1:
            raise ValidationError("all Pauli strings must have equal length")
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0][1])

    @classmethod
    def single(cls, num_qubits: int, letters: dict[int, str], coeff: float = 1.0) -> "PauliObservable":
        """One Pauli string with the given letters, identity elsewhere."""
        chars = ["I"] * num_qubits
        for q, letter in letters.items():
            if not 0 <= q < num_qubits:
                raise ValidationError(f"qubit {q} is outside 0..{num_qubits - 1}")
            chars[q] = letter
        return cls(terms=((coeff, "".join(chars)),))


# --- stock circuit builders ---------------------------------------------------

_RANDOM_1Q_POOL = ("H", "S", "T", "RX", "RY", "RZ")


def random_circuit(num_qubits: int, depth: int, seed: int) -> Circuit:
    """Layered random circuit, deterministic per seed.

    Each layer applies one uniformly chosen single-qubit gate per qubit
    (rotation angles uniform in [0, 2pi)), then CNOTs on a random maximal
    matching of adjacent qubit pairs. Nothing is trainable.
    """
    if num_qubits < 1 or depth < 0:
        raise ValidationError("num_qubits >= 1 and depth >= 0 required")
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    for _ in range(depth):
        for q in range(num_qubits):
            name = _RANDOM_1Q_POOL[int(rng.integers(len(_RANDOM_1Q_POOL)))]
            if name in ROTATION_GATES:
                gates.append(Gate(name, (q,), float(rng.uniform(0.0, 2.0 * math.pi))))
            else:
                gates.append(Gate(name, (q,)))
        # Greedy over a random edge order yields a random maximal matching.
        chosen: list[tuple[int, int]] = []
        used: set[int] = set()
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
        for ei in rng.permutation(len(edges)):
            a, b = edges[int(ei)]
            if a not in used and b not in used:
                chosen.append((a, b))
                used.update((a, b))
        for a, b in sorted(chosen):
            gates.append(Gate("CNOT", (a, b)))
    return Circuit(num_qubits, tuple(gates))


def efficient_su2(num_qubits: int, reps: int, params) -> Circuit:
    """RY+RZ rotation layers with linear CNOT chains in between.

    reps+1 rotation layers; between consecutive layers a CNOT chain
    (i, i+1). Trainable angles are ordered layer-major, qubit-major,
    RY before RZ: len(params) == 2 * num_qubits * (reps + 1).
    """
    if num_qubits < 1 or reps < 0:
        raise ValidationError("num_qubits >= 1 and reps >= 0 required")
    params = np.asarray(params, dtype=float)
    expected = 2 * num_qubits * (reps + 1)
    if params.shape != (expected,):
        raise ValidationError(f"efficient_su2 needs {expected} parameters, got {params.shape}")
    gates: list[Gate] = []
    idx = 0
    for layer in range(reps + 1):
        for q in range(num_qubits):
            gates.append(Gate("RY", (q,), float(params[idx]), idx))
            idx += 1
            gates.append(Gate("RZ", (q,), float(params[idx]), idx))
            idx += 1
        if layer < reps:
            for i in range(num_qubits - 1):
                gates.append(Gate("CNOT", (i, i + 1)))
    return Circuit(num_qubits, tuple(gates))


def sel_circuit(num_qubits: int, layers: int, params) -> Circuit:
    """Strongly-entangling layers: per-qubit RZ/RY/RZ then a CNOT ring.

    Layer l entangles qubit i with qubit (i + r) mod n where
    r = 1 + (l mod max(n - 1, 1)); a single qubit degenerates to rotations
    only. len(params) == 3 * num_qubits * layers, ordered layer-major,
    qubit-major, (alpha, beta, gamma) per qubit.
    """
    if num_qubits < 1 or layers < 0:
        raise ValidationError("num_qubits >= 1 and layers >= 0 required")
    params = np.asarray(params, dtype=float)
    expected = 3 * num_qubits * layers
    if params.shape != (expected,):
        raise ValidationError(f"sel_circuit needs {expected} parameters, got {params.shape}")
    gates: list[Gate] = []
    idx = 0
    for layer in range(layers):
        for q in range(num_qubits):
            for name in ("RZ", "RY", "RZ"):
                gates.append(Gate(name, (q,), float(params[idx]), idx))
                idx += 1
        if num_qubits >= 2:
            r = 1 + (layer % (num_qubits - 1))
            for i in range(num_qubits):
                gates.append(Gate("CNOT", (i, (i + r) % num_qubits)))
    return Circuit(num_qubits, tuple(gates))
