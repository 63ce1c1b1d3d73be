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
for 64 terms. The 8^k terms of k cuts are never listed: a fragment's run
values, in the order its runs were generated, form a table with a row per
prep label and two slots per measurement basis. Fixed index arrays pick each
table's 8 term rows and slots, and reconstruction folds the fragments along
the chain at a cost linear in k. Only the shot overhead stays 16^k.

Observables are restricted to a single Pauli string: each fragment rotates
X/Y letters onto Z at the end of its circuit, measures everything in the
computational basis, and term values become signed sums over the returned
counts or probability vectors. The letter on a cut wire rides the wire into
the downstream fragment.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from pilotq.codec import JsonRecord
from pilotq.errors import (
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
class FragmentSpec(JsonRecord):
    """One fragment: its local circuit before any prep/basis injections.

    `letters` holds the observable's Z letters on local wires (a letter on
    a cut wire lives in the downstream fragment). `prep_wire` is the local
    wire that re-prepares the cut from the fragment before, `measure_wire`
    the local wire measured for the cut to the fragment after; each is None
    at its end of the chain.
    """

    circuit: Circuit
    letters: dict[int, str]
    prep_wire: int | None = None
    measure_wire: int | None = None

    @property
    def width(self) -> int:
        return self.circuit.num_qubits


@dataclass(frozen=True)
class CutPlan(JsonRecord):
    """A chain of fragments; cut f joins fragment f to fragment f+1."""

    observable: PauliObservable
    fragments: tuple[FragmentSpec, ...]

    def __post_init__(self):
        # An unpaired cut end would still reconstruct, to a wrong value.
        last = len(self.fragments) - 1
        ends = [(f.prep_wire is not None, f.measure_wire is not None) for f in self.fragments]
        if not ends or ends != [(f > 0, f < last) for f in range(last + 1)]:
            raise ValidationError(
                "a cut plan is a chain: every fragment but the first preps a cut, "
                "and every fragment but the last measures one"
            )

    @property
    def num_cuts(self) -> int:
        return len(self.fragments) - 1

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
    body_by_cluster: dict[int, list[Gate]] = {ci: [] for ci in range(num_fragments)}
    for g in body:
        body_by_cluster[cluster_of[g.qubits[0]]].append(g)

    for ci in range(num_fragments):
        start, end = starts[ci], ends[ci]
        incoming = ci > 0
        local_of = {q: (q - start + (1 if incoming else 0)) for q in range(start, end + 1)}
        width = end - start + 1 + (1 if incoming else 0)
        # The cut in re-prepares a fresh wire 0; the cut out measures the
        # wire of the cluster's last qubit, which is the next boundary.
        measure_wire = local_of[end] if ci < len(boundaries) else None
        frag_gates = [
            Gate(g.name, tuple(local_of[q] for q in g.qubits), g.param)
            for g in body_by_cluster[ci]
        ]
        if incoming:
            frag_gates.append(Gate("CNOT", (0, local_of[start])))

        letters: dict[int, str] = {}
        if incoming and string[boundaries[ci - 1]] != "I":
            letters[0] = string[boundaries[ci - 1]]
        for q in range(start, end + 1):
            if string[q] != "I" and local_of[q] != measure_wire:
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
                circuit=Circuit(width, tuple(frag_gates)),
                letters=letters,
                prep_wire=0 if incoming else None,
                measure_wire=measure_wire,
            )
        )

    return CutPlan(observable=observable, fragments=tuple(fragments))


# --- subexperiments and reconstruction -------------------------------------------

# Where each WIRE_CUT_TERMS row reads its two fragment values: the prep row of
# the downstream fragment's table, and the measure slot of the upstream one's.
# A slot is 2 * basis + signed: a run in MEASURE_BASES[basis] sums each outcome
# once without and once with the cut wire's sign, so the Z run's unsigned sum
# is the I value.
_TERM_PREP = np.array([PREP_LABELS.index(t.prep) for t in WIRE_CUT_TERMS])
_TERM_SLOT = np.array(
    [2 * MEASURE_BASES.index(t.measure) + 1 if t.measure != "I" else 0 for t in WIRE_CUT_TERMS]
)
_TERM_COEFF = np.array([t.coeff for t in WIRE_CUT_TERMS])
_NO_CUT = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class Subexperiment(JsonRecord):
    """One runnable fragment circuit: preps prepended, rotations appended.

    `key` names the run (fragment, prep labels, bases) for its task id.
    `masks` holds the fragment's sign masks, the same for each of its runs:
    the observable's letters, then with the measured cut wire left out and
    put in. A mask marks the local wires whose Z outcome multiplies into
    the sign.
    """

    key: str
    circuit: Circuit
    masks: tuple[int, ...]


@dataclass(frozen=True)
class Reconstruction(JsonRecord):
    """The wire-cut expansion of a chain plan, read by run position.

    `cuts[f]` is (prepped, measured) for fragment f: 0 or 1 cuts on each
    side, since find_cuts plans chains. Fragment f's runs, in generation
    order, form a table of 6^prepped rows (PREP_LABELS) by 6^measured
    slots (2 per MEASURE_BASES run). `len` counts the 8^k terms.
    """

    coeff: float
    cuts: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(WIRE_CUT_TERMS) ** sum(measured for _, measured in self.cuts)


def _runs_on(wire: int | None, tag: str, labels, gates) -> list[tuple[str, tuple[Gate, ...]]]:
    """(key part, gates on `wire`) per label for a cut end, or one empty
    run where the fragment has no cut."""
    if wire is None:
        return [("", ())]
    return [
        (f",{tag}={label}", tuple(Gate(name, (wire,)) for name in gates[label]))
        for label in labels
    ]


def generate_subexperiments(plan: CutPlan) -> tuple[list[Subexperiment], Reconstruction]:
    """All fragment circuits to run, fragment by fragment, then prep labels,
    then bases, plus the expansion that combines their values in that order.
    Fragment f preps cut f-1 and measures cut f."""
    subs: list[Subexperiment] = []
    for f, frag in enumerate(plan.fragments):
        masks = (sum(1 << wire for wire in frag.letters),)
        if frag.measure_wire is not None:
            masks += (masks[0] | 1 << frag.measure_wire,)
        preps = _runs_on(frag.prep_wire, f"p{f - 1}", PREP_LABELS, _PREP_GATES)
        bases = _runs_on(frag.measure_wire, f"b{f}", MEASURE_BASES, _BASIS_ROTATIONS)
        for (prep_key, prefix), (basis_key, suffix) in itertools.product(preps, bases):
            circuit = Circuit(frag.width, prefix + frag.circuit.gates + suffix)
            subs.append(
                Subexperiment(key=f"f{f}{prep_key}{basis_key}", circuit=circuit, masks=masks)
            )

    obs_coeff, _ = plan.observable.terms[0]
    cuts = tuple(
        (int(f.prep_wire is not None), int(f.measure_wire is not None)) for f in plan.fragments
    )
    return subs, Reconstruction(coeff=obs_coeff, cuts=cuts)


def _signs(masks: tuple[int, ...], size: int) -> np.ndarray:
    """Read-only (len(masks), size) array of ±1: the sign of each outcome
    index under each mask."""
    idx = np.arange(size, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.array(masks, dtype=np.uint64)[:, None]) & 1
    signs = 1.0 - 2.0 * parity
    signs.flags.writeable = False
    return signs


# Every run of a fragment has the same masks and width, so its sign rows are
# built once. Only outputs of up to _CACHED_SIZE outcomes are cached: 64
# entries of two masks hold at most 4 MiB.
_CACHED_SIZE = 2**12
_cached_signs = functools.lru_cache(maxsize=64)(_signs)


def fragment_values(
    sub: Subexperiment,
    *,
    probabilities: Iterable[float] | None = None,
    counts: Mapping[str, int] | None = None,
) -> np.ndarray:
    """One signed sum of a subexperiment's output per sign mask."""
    if (probabilities is None) == (counts is None):
        raise ValidationError("pass exactly one of probabilities or counts")
    if counts is not None:
        probs = counts_probabilities(counts, sub.circuit.num_qubits)
    else:
        probs = np.asarray(list(probabilities), dtype=float)
        if probs.size != 2**sub.circuit.num_qubits:
            raise ValidationError("probability vector length does not match the fragment")
    signs = (_cached_signs if probs.size <= _CACHED_SIZE else _signs)(sub.masks, probs.size)
    return (probs * signs).sum(axis=1)


def reconstruct(expansion: Reconstruction, values: Sequence[np.ndarray]) -> float:
    """Fold the fragments along the cut chain, from `values`, the
    fragment_values of every run in generation order. Fragment f preps the
    cut fragment f-1 measured, so a vector over the open cut's term rows,
    weighted by their coefficients, carries the sum over the fragments
    folded so far; it starts and ends with one entry."""
    sizes = [6**prepped * 3**measured for prepped, measured in expansion.cuts]
    runs = sum(sizes)
    if len(values) != runs:
        raise ValidationError(f"reconstruction needs the values of {runs} runs, got {len(values)}")
    carry = np.ones(1)
    start = 0
    for (prepped, measured), size in zip(expansion.cuts, sizes):
        try:
            table = np.asarray(values[start : start + size], dtype=float).reshape(
                6**prepped, 6**measured
            )
        except ValueError:
            raise ValidationError(
                f"runs {start}..{start + size - 1} must each give {2**measured} values"
            ) from None
        start += size
        rows = _TERM_PREP if prepped else _NO_CUT
        slots, weights = (_TERM_SLOT, _TERM_COEFF) if measured else (_NO_CUT, 1.0)
        carry = np.einsum("i,ij->j", carry, table[rows[:, None], slots]) * weights
    return expansion.coeff * carry.item()


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
    # the runs differ only in width, so one check per width covers them all
    widths_checked: set[int] = set()
    for sub, desc in zip(subs, descs):
        if desc.requires_qubits in widths_checked:
            continue
        widths_checked.add(desc.requires_qubits)
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
    values = []
    for sub, tid in zip(subs, ids):
        rec = outcome.records[tid]
        if rec.state is not TaskState.DONE:
            raise PilotQError(f"fragment task {tid} ended {rec.state.value}: {rec.error}")
        if shots == 0:
            values.append(fragment_values(sub, probabilities=rec.result.probabilities))
        else:
            values.append(fragment_values(sub, counts=rec.result.counts))
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
