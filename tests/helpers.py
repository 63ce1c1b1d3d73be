"""Shared test helpers: pilot/task factories, record and circuit probes, CSV
readers, and a dense-matrix circuit oracle.

The oracle builds every gate as an explicit 2^n x 2^n matrix from basis-index
arithmetic and multiplies it onto the state. It shares no kernel code with
the package simulator (which works on reshaped views), so agreement between
the two is evidence, not tautology.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from pilotq.errors import ValidationError
from pilotq.model import (
    BackendKind,
    PilotDescription,
    QueueModel,
    TaskDescription,
    TaskKind,
)
from pilotq.qsim.circuit import Circuit, Gate, sel_circuit

# --- factories -------------------------------------------------------------------


def local_desc(name="p0", cores=4, latency_s=0.0, seed=0, **kw) -> PilotDescription:
    return PilotDescription(
        name=name,
        backend_kind=BackendKind.LOCAL,
        cores_per_node=cores,
        queue_model=QueueModel(per_task_latency_s=latency_s),
        seed=seed,
        **kw,
    )


def qpu_desc(name="q0", qubits=16, cores=2, latency_s=0.0, base_delay_s=0.0, **kw) -> PilotDescription:
    return PilotDescription(
        name=name,
        backend_kind=BackendKind.QPU_SIM,
        cores_per_node=cores,
        qpu_qubits=qubits,
        queue_model=QueueModel(base_delay_s=base_delay_s, per_task_latency_s=latency_s),
        **kw,
    )


def zero_task(i=0, prefix="z", **kw) -> TaskDescription:
    return TaskDescription(task_id=f"{prefix}{i}", kind=TaskKind.ZERO_COMPUTE, **kw)


# --- record and circuit probes ----------------------------------------------------


def monotone(timestamps) -> bool:
    """The stamps that are set never go back in time; gaps and ties allowed."""
    seen = [
        t
        for t in (timestamps.submit_s, timestamps.schedule_s, timestamps.start_s, timestamps.end_s)
        if t is not None
    ]
    return all(a <= b for a, b in zip(seen, seen[1:]))


def parameters(circuit) -> np.ndarray:
    """Current angles of a circuit's trainable gates, by param_index."""
    out = np.zeros(circuit.num_params)
    for g in circuit.gates:
        if g.param_index is not None:
            out[g.param_index] = g.param
    return out


def bitstring(index: int, num_qubits: int) -> str:
    """Little-endian rendering: character q is the state of qubit q."""
    return "".join(str((index >> q) & 1) for q in range(num_qubits))


def classifier_circuit(features, params, n_qubits: int, layers: int) -> Circuit:
    """Angle encoding prepended to the trainable strongly-entangling ansatz:
    the circuit whose expectations the VQC's batch kernel computes."""
    if len(features) != n_qubits:
        raise ValidationError("one feature per qubit required")
    encoding = tuple(Gate("RY", (q,), float(x)) for q, x in enumerate(features))
    ansatz = sel_circuit(n_qubits, layers, params)
    return Circuit(n_qubits, encoding + ansatz.gates)


# --- CSV outputs ---------------------------------------------------------------------

TIMING_SUFFIXES = ("_s", "_ms")


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def nontiming_columns(rows: list[dict]) -> list[dict]:
    """Rows with wall-clock columns removed; the determinism comparison view."""
    return [
        {k: v for k, v in row.items() if not k.endswith(TIMING_SUFFIXES)} for row in rows
    ]


# --- dense matrix oracle ------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)

ORACLE_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}

ORACLE_PAULI = {
    "I": _I2,
    "X": ORACLE_FIXED["X"],
    "Y": ORACLE_FIXED["Y"],
    "Z": ORACLE_FIXED["Z"],
}


def oracle_rotation(name: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "RZ":
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)
    raise AssertionError(name)


def embed_1q(mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """kron(A_{n-1}, ..., A_0): basis index bit q is qubit q."""
    out = np.array([[1.0 + 0j]])
    for k in range(n - 1, -1, -1):
        out = np.kron(out, mat if k == qubit else _I2)
    return out


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        out[j, i] = 1.0
    return out


def cz_matrix(a: int, b: int, n: int) -> np.ndarray:
    dim = 2**n
    signs = np.ones(dim, dtype=complex)
    for i in range(dim):
        if (i >> a) & 1 and (i >> b) & 1:
            signs[i] = -1.0
    return np.diag(signs)


def gate_to_matrix(gate, n: int) -> np.ndarray:
    if gate.name == "CNOT":
        return cnot_matrix(gate.qubits[0], gate.qubits[1], n)
    if gate.name == "CZ":
        return cz_matrix(gate.qubits[0], gate.qubits[1], n)
    mat = ORACLE_FIXED.get(gate.name)
    if mat is None:
        mat = oracle_rotation(gate.name, gate.param)
    return embed_1q(mat, gate.qubits[0], n)


def oracle_run(circuit) -> np.ndarray:
    n = circuit.num_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = gate_to_matrix(gate, n) @ state
    return state


def pauli_string_matrix(string: str) -> np.ndarray:
    """Full matrix for one string, respecting position-q-is-qubit-q order."""
    n = len(string)
    out = np.array([[1.0 + 0j]])
    for k in range(n - 1, -1, -1):
        out = np.kron(out, ORACLE_PAULI[string[k]])
    return out


def observable_matrix(observable) -> np.ndarray:
    acc = None
    for coeff, string in observable.terms:
        term = coeff * pauli_string_matrix(string)
        acc = term if acc is None else acc + term
    return acc


def oracle_expectation(state: np.ndarray, observable) -> float:
    return float(np.real(np.vdot(state, observable_matrix(observable) @ state)))


# --- event-log auditor ---------------------------------------------------------------

_TERMINAL_EVENTS = {"task_done", "task_failed", "task_canceled"}

# Legal predecessors of each task event. "pending" covers submitted/retried/
# requeued tasks; task_failed can strike a pending task (placement failure),
# an assigned one (pre-start walltime check), or a running one.
_TASK_EVENT_FROM = {
    "task_submitted": {None},
    "task_assigned": {"pending"},
    "task_started": {"assigned"},
    "task_done": {"running"},
    "task_failed": {"pending", "assigned", "running"},
    "task_retry": {"assigned", "running"},
    "task_requeued": {"assigned"},
    "task_canceled": {"pending", "assigned"},
}

_TASK_EVENT_TO = {
    "task_submitted": "pending",
    "task_assigned": "assigned",
    "task_started": "running",
    "task_done": "done",
    "task_failed": "failed",
    "task_retry": "pending",
    "task_requeued": "pending",
    "task_canceled": "canceled",
}


def audit_events(records, *, sim_qubits: int) -> list[str]:
    """Replay an event stream and collect scheduler-invariant violations.

    Checks per-task event ordering, exactly one terminal event per task,
    assignments only to live pilots whose declared shape fits the task's
    requirements, and per-pilot concurrent core usage within the allocation.
    """
    violations: list[str] = []
    pilots: dict[str, dict] = {}  # live pilots only
    phase: dict[str, str] = {}
    terminal_seen: dict[str, int] = {}
    running: dict[str, dict[str, int]] = {}  # pilot -> {tid: cores held}
    task_cores: dict[str, int] = {}

    for ev in records:
        if ev.entity == "pilot":
            if ev.event == "pilot_created":
                if ev.entity_id in pilots:
                    violations.append(f"pilot {ev.entity_id} created twice")
                pilots[ev.entity_id] = {
                    "backend": ev.attrs["backend"],
                    "total_cores": int(ev.attrs["total_cores"]),
                    "total_gpus": int(ev.attrs["total_gpus"]),
                    "qpu_qubits": int(ev.attrs["qpu_qubits"]),
                }
                running.setdefault(ev.entity_id, {})
            elif ev.event == "pilot_removed":
                if pilots.pop(ev.entity_id, None) is None:
                    violations.append(f"pilot {ev.entity_id} removed while not live")
            continue
        if ev.entity != "task" or ev.event not in _TASK_EVENT_FROM:
            continue

        tid = ev.entity_id
        prev = phase.get(tid)
        if prev not in _TASK_EVENT_FROM[ev.event]:
            violations.append(f"{tid}: {ev.event} from phase {prev}")
        phase[tid] = _TASK_EVENT_TO[ev.event]

        if ev.event == "task_assigned":
            name = ev.attrs["pilot"]
            shape = pilots.get(name)
            if shape is None:
                violations.append(f"{tid}: assigned to non-live pilot {name}")
                continue
            cores = int(ev.attrs["requires_cores"])
            gpus = int(ev.attrs["requires_gpus"])
            qubits = int(ev.attrs["requires_qubits"])
            task_cores[tid] = cores
            if cores > shape["total_cores"]:
                violations.append(f"{tid}: {cores} cores on {name} ({shape['total_cores']})")
            if gpus > shape["total_gpus"]:
                violations.append(f"{tid}: {gpus} gpus on {name} ({shape['total_gpus']})")
            if qubits > 0:
                cap = shape["qpu_qubits"] if shape["backend"] == "qpu_sim" else sim_qubits
                if qubits > cap:
                    violations.append(f"{tid}: {qubits} qubits on {name} (cap {cap})")
        elif ev.event == "task_started":
            name = ev.attrs["pilot"]
            slots = running.setdefault(name, {})
            slots[tid] = task_cores.get(tid, 1)
            limit = pilots[name]["total_cores"] if name in pilots else None
            if limit is not None and sum(slots.values()) > limit:
                violations.append(f"{name}: {sum(slots.values())} cores running (limit {limit})")
        elif ev.event in ("task_done", "task_failed", "task_retry"):
            name = ev.attrs.get("pilot")
            if name in running:
                running[name].pop(tid, None)

        if ev.event in _TERMINAL_EVENTS:
            terminal_seen[tid] = terminal_seen.get(tid, 0) + 1

    for tid, count in terminal_seen.items():
        if count != 1:
            violations.append(f"{tid}: {count} terminal events")
    for tid, ph in phase.items():
        if ph not in ("done", "failed", "canceled"):
            violations.append(f"{tid}: stream ends in phase {ph}")
    return violations


def assignments_by_pilot(records) -> dict[str, int]:
    out: dict[str, int] = {}
    for ev in records:
        if ev.entity == "task" and ev.event == "task_assigned":
            name = ev.attrs["pilot"]
            out[name] = out.get(name, 0) + 1
    return out
