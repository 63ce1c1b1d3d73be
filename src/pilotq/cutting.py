"""Wire cutting for cluster-structured circuits.

A cut severs one qubit wire and replaces the identity channel across it by
an 8-term measure-and-prepare sum: the upstream fragment measures the wire
in the I/Z/X/Y basis, the downstream fragment re-prepares it in one of the
six single-qubit stabilizer states, and the weighted products of fragment
expectations reproduce the uncut expectation exactly:

    rho = 1/2 [ Tr(I rho)(|0><0| + |1><1|) + Tr(Z rho)(|0><0| - |1><1|)
              + Tr(X rho)(|+><+| - |-><-|) + Tr(Y rho)(|i><i| - |-i><-i|) ]

Coefficient magnitudes sum to 4 per cut, so estimating through k cuts at
fixed shot noise costs a 16^k sampling overhead.

The planner targets the shape `clustered_circuit` emits: local blocks on
disjoint qubit ranges followed by a trailing run of nearest-neighbour
coupling CNOTs, one per cluster boundary. Each boundary is cut on the
control wire just before its coupling CNOT, which moves the CNOT into the
downstream fragment with a fresh re-prepared wire as its control. One cut
therefore needs 9 fragment circuits (3 upstream measurement bases, with the
Z run reused for the I term, plus 6 downstream preparations) feeding all
8 reconstruction terms; a 3-cluster chain needs 3 + 3*6 + 6 = 27 circuits
for 64 terms. The 8^k terms of k cuts are never listed: each fragment gives
a value table with one 8-row axis per cut it touches, and reconstruction
contracts the tables along the chain at a cost linear in k. Only the shot
overhead stays 16^k.

Observables are restricted to a single Pauli string: each fragment rotates
X/Y letters onto Z at the end of its circuit, measures everything in the
computational basis, and term values become signed sums over the returned
counts or probability vectors. The letter on a cut wire rides the wire into
the downstream fragment.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from pilotq.codec import JsonRecord
from pilotq.errors import (
    MissingFragmentValue,
    NoFeasiblePilot,
    NotCutFriendly,
    PilotQError,
    UnsupportedObservable,
    ValidationError,
    WidthExceeded,
)
from pilotq.model import QuantumPayload, TaskDescription, TaskKind, TaskState
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable, efficient_su2
from pilotq.qsim.simulate import counts_probabilities, expectation, run_circuit

PREP_LABELS = ("0", "1", "+", "-", "+i", "-i")
MEASURE_BASES = ("Z", "X", "Y")

# Gates that turn |0> into the labelled state, applied in order.
_PREP_GATES: dict[str, tuple[str, ...]] = {
    "0": (),
    "1": ("X",),
    "+": ("H",),
    "-": ("X", "H"),
    "+i": ("H", "S"),
    "-i": ("X", "H", "S"),
}

# Gates that rotate the named basis onto Z before a computational-basis
# measurement. Y needs S-dagger then H; S-dagger is Z followed by S.
_BASIS_ROTATIONS: dict[str, tuple[str, ...]] = {
    "Z": (),
    "X": ("H",),
    "Y": ("Z", "S", "H"),
}


@dataclass(frozen=True)
class CutTerm:
    measure: str  # I, Z, X or Y on the upstream wire
    prep: str  # one of PREP_LABELS on the downstream wire
    coeff: float


WIRE_CUT_TERMS: tuple[CutTerm, ...] = (
    CutTerm("I", "0", +0.5),
    CutTerm("I", "1", +0.5),
    CutTerm("Z", "0", +0.5),
    CutTerm("Z", "1", -0.5),
    CutTerm("X", "+", +0.5),
    CutTerm("X", "-", -0.5),
    CutTerm("Y", "+i", +0.5),
    CutTerm("Y", "-i", -0.5),
)


def sampling_overhead(num_cuts: int) -> float:
    """Shot-count multiplier to hold estimator variance across k cuts."""
    return 16.0**num_cuts


def clustered_circuit(cluster_sizes, reps: int = 1, seed: int = 0) -> Circuit:
    """Chain of hardware-efficient blocks joined by trailing coupling CNOTs.

    Each cluster runs its own randomly parameterised block on a disjoint
    qubit range; afterwards one CNOT per boundary couples the last qubit of
    a cluster to the first qubit of the next. Angles are uniform in
    [0, 2pi), deterministic per seed. Nothing is trainable.
    """
    sizes = [int(s) for s in cluster_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValidationError("cluster_sizes must be a non-empty list of sizes >= 1")
    rng = np.random.default_rng(seed)
    gates: list[Gate] = []
    offset = 0
    boundaries: list[int] = []
    for size in sizes:
        block_params = rng.uniform(0.0, 2.0 * np.pi, 2 * size * (reps + 1))
        block = efficient_su2(size, reps, block_params)
        gates.extend(
            Gate(g.name, tuple(q + offset for q in g.qubits), g.param) for g in block.gates
        )
        offset += size
        if offset < sum(sizes):
            boundaries.append(offset - 1)
    for b in boundaries:
        gates.append(Gate("CNOT", (b, b + 1)))
    return Circuit(sum(sizes), tuple(gates))


# --- cut plans -----------------------------------------------------------------


@dataclass(frozen=True)
class CutSpec(JsonRecord):
    """One severed wire, identified by the original qubit it runs on."""

    cut_id: int
    original_qubit: int
    upstream_fragment: int
    upstream_wire: int
    downstream_fragment: int
    downstream_wire: int


@dataclass(frozen=True)
class FragmentSpec(JsonRecord):
    """One fragment: its local circuit before any prep/basis injections.

    `letters` holds the observable's Z letters on local wires (a letter on
    a cut wire lives in the downstream fragment). `qubit_map` sends local
    wires back to original qubits; an incoming cut wire maps to the qubit
    it continues.
    """

    index: int
    circuit: Circuit
    letters: dict[int, str]
    qubit_map: dict[int, int]
    measured_cuts: tuple[int, ...]
    prepped_cuts: tuple[int, ...]

    @property
    def width(self) -> int:
        return self.circuit.num_qubits


@dataclass(frozen=True)
class CutPlan(JsonRecord):
    num_qubits: int
    observable: PauliObservable
    fragments: tuple[FragmentSpec, ...]
    cuts: tuple[CutSpec, ...]

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    @property
    def max_fragment_width(self) -> int:
        return max(f.width for f in self.fragments)

    @property
    def sampling_overhead(self) -> float:
        return sampling_overhead(self.num_cuts)


def _single_pauli_string(observable: PauliObservable) -> tuple[float, str]:
    if len(observable.terms) != 1:
        raise UnsupportedObservable("cutting supports a single Pauli string")
    return observable.terms[0]


def find_cuts(circuit: Circuit, observable: PauliObservable, max_width: int) -> CutPlan:
    """Plan wire cuts for a circuit whose coupling CNOTs all trail the body.

    Raises NotCutFriendly when the structure does not decompose (no trailing
    CNOTs, a coupling gate not of the form CNOT(q, q+1) in ascending order,
    or a body gate spanning a boundary), and WidthExceeded when a fragment
    would still be wider than max_width.
    """
    _, string = _single_pauli_string(observable)
    if observable.num_qubits != circuit.num_qubits:
        raise ValidationError("observable width must match the circuit")
    if max_width < 2:
        raise ValidationError("max_width must be >= 2")

    gates = circuit.gates
    split = len(gates)
    while split > 0 and gates[split - 1].name == "CNOT":
        split -= 1
    body, tail = gates[:split], gates[split:]
    if not tail:
        raise NotCutFriendly("no trailing coupling CNOTs to cut at")

    boundaries: list[int] = []
    for g in tail:
        control, target = g.qubits
        if target != control + 1:
            raise NotCutFriendly(
                f"coupling gate CNOT{g.qubits} is not a forward nearest-neighbour CNOT"
            )
        if boundaries and control <= boundaries[-1]:
            raise NotCutFriendly("coupling CNOTs must cross distinct ascending boundaries")
        boundaries.append(control)

    starts = [0] + [b + 1 for b in boundaries]
    ends = boundaries + [circuit.num_qubits - 1]
    cluster_of: dict[int, int] = {}
    for ci, (s, e) in enumerate(zip(starts, ends)):
        for q in range(s, e + 1):
            cluster_of[q] = ci

    for g in body:
        spanned = {cluster_of[q] for q in g.qubits}
        if len(spanned) > 1:
            raise NotCutFriendly(f"body gate {g.name}{g.qubits} spans a cluster boundary")

    num_fragments = len(boundaries) + 1
    fragments: list[FragmentSpec] = []
    cuts: list[CutSpec] = []
    body_by_cluster: dict[int, list[Gate]] = {ci: [] for ci in range(num_fragments)}
    for g in body:
        body_by_cluster[cluster_of[g.qubits[0]]].append(g)

    for ci in range(num_fragments):
        start, end = starts[ci], ends[ci]
        incoming = ci > 0
        local_of = {q: (q - start + (1 if incoming else 0)) for q in range(start, end + 1)}
        width = end - start + 1 + (1 if incoming else 0)
        frag_gates = [
            Gate(g.name, tuple(local_of[q] for q in g.qubits), g.param)
            for g in body_by_cluster[ci]
        ]
        if incoming:
            frag_gates.append(Gate("CNOT", (0, local_of[start])))

        letters: dict[int, str] = {}
        qubit_map = {local: orig for orig, local in local_of.items()}
        if incoming:
            qubit_map[0] = boundaries[ci - 1]
            if string[boundaries[ci - 1]] != "I":
                letters[0] = string[boundaries[ci - 1]]
        measured: tuple[int, ...] = ()
        if ci < len(boundaries):
            b = boundaries[ci]
            measured = (ci,)
            cuts.append(
                CutSpec(
                    cut_id=ci,
                    original_qubit=b,
                    upstream_fragment=ci,
                    upstream_wire=local_of[b],
                    downstream_fragment=ci + 1,
                    downstream_wire=0,
                )
            )
        for q in range(start, end + 1):
            if string[q] != "I" and not (measured and q == boundaries[ci]):
                letters[local_of[q]] = string[q]
        # X/Y observable letters become Z measurements after a fixed
        # end-of-circuit rotation on their wire.
        for wire in sorted(letters):
            frag_gates.extend(
                Gate(name, (wire,)) for name in _BASIS_ROTATIONS[letters[wire]]
            )

        if width > max_width:
            raise WidthExceeded(
                f"fragment {ci} needs {width} wires, exceeding max_width={max_width}"
            )
        fragments.append(
            FragmentSpec(
                index=ci,
                circuit=Circuit(width, tuple(frag_gates)),
                letters=letters,
                qubit_map=qubit_map,
                measured_cuts=measured,
                prepped_cuts=(ci - 1,) if incoming else (),
            )
        )

    return CutPlan(
        num_qubits=circuit.num_qubits,
        observable=observable,
        fragments=tuple(fragments),
        cuts=tuple(cuts),
    )


# --- subexperiments and reconstruction -------------------------------------------


@dataclass(frozen=True)
class Subexperiment(JsonRecord):
    """One runnable fragment circuit: preps prepended, rotations appended.

    `value_keys` lists the (key, mask) pairs this run's output yields: the
    mask marks local wires whose Z outcome multiplies into the sign. A
    Z-basis run yields both the I and the Z value of its measured cut.
    """

    key: str
    fragment: int
    preps: dict[int, str]
    bases: dict[int, str]
    circuit: Circuit
    value_keys: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Reconstruction(JsonRecord):
    """The wire-cut expansion of a chain plan as one value table per fragment.

    `tables[f]` holds fragment f's value keys row-major over its (prepped,
    measured) cuts, each axis running over the WIRE_CUT_TERMS rows: 8 keys at
    either end of the chain, 64 in the middle. `len` counts the 8^k terms.
    """

    coeff: float
    tables: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(WIRE_CUT_TERMS) ** (len(self.tables) - 1)


def _key(fragment: int, preps: Mapping[int, str], tag: str, picks: Mapping[int, str]) -> str:
    """Tag "m" keys a fragment value by measured letters, "b" a run by bases."""
    parts = [f"f{fragment}"]
    parts += [f"p{c}={preps[c]}" for c in sorted(preps)]
    parts += [f"{tag}{c}={picks[c]}" for c in sorted(picks)]
    return ",".join(parts)


def generate_subexperiments(plan: CutPlan) -> tuple[list[Subexperiment], Reconstruction]:
    """All fragment circuits to run, plus the tables that combine their values."""
    subs: list[Subexperiment] = []
    tables: list[tuple[str, ...]] = []
    for frag in plan.fragments:
        obs_mask = 0
        for wire in frag.letters:
            obs_mask |= 1 << wire
        keys: dict[tuple[tuple[str, ...], tuple[str, ...]], str] = {}
        for preps in itertools.product(PREP_LABELS, repeat=len(frag.prepped_cuts)):
            prep_map = dict(zip(frag.prepped_cuts, preps))
            for bases in itertools.product(MEASURE_BASES, repeat=len(frag.measured_cuts)):
                basis_map = dict(zip(frag.measured_cuts, bases))
                prefix = [
                    Gate(name, (plan.cuts[c].downstream_wire,))
                    for c in frag.prepped_cuts
                    for name in _PREP_GATES[prep_map[c]]
                ]
                suffix = [
                    Gate(name, (plan.cuts[c].upstream_wire,))
                    for c in frag.measured_cuts
                    for name in _BASIS_ROTATIONS[basis_map[c]]
                ]
                circuit = Circuit(
                    frag.width, tuple(prefix) + frag.circuit.gates + tuple(suffix)
                )
                letter_options = [
                    ("I", "Z") if basis_map[c] == "Z" else (basis_map[c],)
                    for c in frag.measured_cuts
                ]
                value_keys = []
                for letters in itertools.product(*letter_options):
                    meas_map = dict(zip(frag.measured_cuts, letters))
                    mask = obs_mask
                    for c, letter in meas_map.items():
                        if letter != "I":
                            mask |= 1 << plan.cuts[c].upstream_wire
                    keys[preps, letters] = _key(frag.index, prep_map, "m", meas_map)
                    value_keys.append((keys[preps, letters], mask))
                subs.append(
                    Subexperiment(
                        key=_key(frag.index, prep_map, "b", basis_map),
                        fragment=frag.index,
                        preps=prep_map,
                        bases=basis_map,
                        circuit=circuit,
                        value_keys=tuple(value_keys),
                    )
                )
        tables.append(
            tuple(
                keys[tuple(r.prep for r in ins), tuple(r.measure for r in outs)]
                for ins in itertools.product(WIRE_CUT_TERMS, repeat=len(frag.prepped_cuts))
                for outs in itertools.product(WIRE_CUT_TERMS, repeat=len(frag.measured_cuts))
            )
        )

    obs_coeff, _ = plan.observable.terms[0]
    return subs, Reconstruction(coeff=obs_coeff, tables=tuple(tables))


def _signed_sum_probabilities(probs: np.ndarray, mask: int) -> float:
    idx = np.arange(probs.size, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.uint64(mask)) & 1
    return float(np.sum(probs * (1.0 - 2.0 * parity)))


def fragment_values(
    sub: Subexperiment,
    *,
    probabilities: Iterable[float] | None = None,
    counts: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Evaluate every value key a subexperiment's output provides."""
    if (probabilities is None) == (counts is None):
        raise ValidationError("pass exactly one of probabilities or counts")
    if counts is not None:
        probs = counts_probabilities(counts, sub.circuit.num_qubits)
    else:
        probs = np.asarray(list(probabilities), dtype=float)
        if probs.size != 2**sub.circuit.num_qubits:
            raise ValidationError("probability vector length does not match the fragment")
    return {key: _signed_sum_probabilities(probs, mask) for key, mask in sub.value_keys}


def reconstruct(expansion: Reconstruction, values: Mapping[str, float]) -> float:
    """Contract the fragment tables along the cut chain: fragment f preps cut
    f-1 and measures cut f, so a vector over the open cut's rows, weighted by
    their coefficients, carries the sum over the fragments folded so far."""
    try:
        first, *middle, last = (
            np.array([values[key] for key in table]) for table in expansion.tables
        )
    except KeyError as exc:
        raise MissingFragmentValue(exc.args[0]) from None
    coeffs = np.array([row.coeff for row in WIRE_CUT_TERMS])
    carry = first * coeffs
    for table in middle:
        carry = np.einsum("i,ij,j->j", carry, table.reshape(coeffs.size, -1), coeffs)
    return expansion.coeff * float(np.sum(carry * last))


# --- end-to-end workflow ------------------------------------------------------------


@dataclass(frozen=True)
class CutWorkflowResult(JsonRecord):
    value: float
    oracle_value: float | None
    abs_error: float | None
    num_qubits: int
    num_cuts: int
    num_subexperiments: int
    sampling_overhead: float
    plan_s: float
    exec_s: float
    reconstruct_s: float
    task_ids: tuple[str, ...]


def run_cut_workflow(
    manager,
    circuit: Circuit,
    observable: PauliObservable,
    *,
    max_width: int,
    shots: int = 0,
    oracle: bool = True,
    task_prefix: str = "cut",
    timeout: float | None = None,
) -> CutWorkflowResult:
    """Cut, fan the fragments out as tasks, and reconstruct the expectation.

    shots=0 runs fragments exactly (probability vectors; needs classical
    pilots), shots>0 samples each subexperiment with that many shots. Every
    subexperiment must have a feasible live pilot up front, otherwise
    NoFeasiblePilot; a failed fragment task aborts the workflow.
    """
    t0 = time.perf_counter()
    plan = find_cuts(circuit, observable, max_width)
    subs, expansion = generate_subexperiments(plan)
    descs = [
        TaskDescription(
            task_id=f"{task_prefix}-{sub.key}",
            kind=TaskKind.QUANTUM_CIRCUIT,
            payload=QuantumPayload(circuit=sub.circuit, shots=shots),
            requires_qubits=sub.circuit.num_qubits,
        )
        for sub in subs
    ]
    for sub, desc in zip(subs, descs):
        if not manager.feasible_pilots(desc):
            raise NoFeasiblePilot(
                f"no live pilot can run subexperiment {sub.key} "
                f"(width {sub.circuit.num_qubits}, shots {shots})"
            )
    plan_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    ids = [manager.submit_task(desc) for desc in descs]
    outcome = manager.wait(ids, timeout)
    if not outcome.complete:
        raise PilotQError(f"cut workflow timed out after {timeout}s")
    values: dict[str, float] = {}
    for sub, tid in zip(subs, ids):
        rec = outcome.records[tid]
        if rec.state is not TaskState.DONE:
            raise PilotQError(f"fragment task {tid} ended {rec.state.value}: {rec.error}")
        if shots == 0:
            values.update(fragment_values(sub, probabilities=rec.result.probabilities))
        else:
            values.update(fragment_values(sub, counts=rec.result.counts))
    exec_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    value = reconstruct(expansion, values)
    reconstruct_s = time.perf_counter() - t2

    oracle_value = None
    abs_error = None
    if oracle:
        state = run_circuit(circuit)
        oracle_value = expectation(state, observable)
        abs_error = abs(value - oracle_value)

    return CutWorkflowResult(
        value=value,
        oracle_value=oracle_value,
        abs_error=abs_error,
        num_qubits=circuit.num_qubits,
        num_cuts=plan.num_cuts,
        num_subexperiments=len(subs),
        sampling_overhead=plan.sampling_overhead,
        plan_s=plan_s,
        exec_s=exec_s,
        reconstruct_s=reconstruct_s,
        task_ids=tuple(ids),
    )
