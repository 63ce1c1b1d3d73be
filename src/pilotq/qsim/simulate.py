"""Dense state-vector execution: run, measure, sample.

States are numpy complex128 arrays of length 2**n in little-endian order
(bit q of the flat index = qubit q). A state vector costs 16 * 2**n bytes;
runs are refused when that does not fit strictly under the memory cap.

Memory: a simulation holds its state plus a fixed scratch. A state of
more than one chunk, `_CHUNK` = 2**16 amplitudes (1 MiB), goes through
every gate and every readout step one chunk at a time, and a smaller one
whole, so run_circuit and an expectation peak at the state plus about one
chunk, and sample adds its probability vector, half a state. A row stack
is taken whole when its rows are one chunk or less. Arrays returned to the
caller are theirs and not counted: the state run_circuit returns, the
vector probabilities returns.

Gates are applied without BLAS, by elementwise numpy operations on views
of the state's memory. Matrix products would go through OpenBLAS, which
starts its own thread pool inside every agent worker thread and
oversubscribes the cores that the workers already share. Inner products
and norms are elementwise sums for the same reason.

No matrix is built here: kernels, fusion and adjoints take a gate's 2x2
as `Gate.matrix`, the flat (m00, m01, m10, m11) computed once per gate.

`_apply` is the one entry point, and one rule picks the layout: the
state's type, its row width (its length, or a stack row's) and the gate's
qubits, never the gate's kind.

- A list state goes to `_apply_small` (below).
- A row of more than one chunk goes chunk by chunk when the gate's qubits
  all lie inside a chunk, and otherwise in blocks of at most one chunk of
  the gate's (..., 2, 2**q) view. Each step's temporary is at most one
  chunk. The blocks hold the same amplitudes the whole-state views would
  pair, so the results are bit-identical.
- A row of at least 64 amplitudes, for a gate whose qubits are all below
  6, takes the row view, `state.reshape(-1, 64)`. Such a gate mixes
  amplitudes only within one row of 64, so one `np.take` with a cached
  64-entry bit-flip permutation pairs each amplitude with its partner, and
  elementwise products with 64-entry coefficient rows combine them: inner
  loops of 64 whatever the qubit.
- Any other gate takes the half view, `state.reshape(-1, 2, 2**q)` for a
  gate on qubit q. Diagonal gates scale one half in place, X-like gates
  swap the halves, and any other gate is a weighted sum of the two. CNOT
  and CZ are the X and Z kernels on the half where the control is 1. Each
  call's inner loop runs over 2**q contiguous amplitudes: long for a high
  qubit, but only 1-32 for qubits 0-5, where numpy's per-loop overhead
  made a gate cost up to five times what it costs on the top qubits.

The row view moves or scales every amplitude, so a gate that changes only
some of them costs more there than on the half view: at 16 qubits, T on
qubit 0 takes about 100 us against 40 us, CNOT(4, 5) about 170 us against
90 us. After fusion the workloads' gates seldom take that form: sending
them to the half view by kind gained the `circuits` benchmark about 1% in
the median of ten alternated runs, less than the spread between runs.
Calls per layout in one measured round of each perfbench workload (seed 0):

    layout               circuits   cut   vqc
    list                        0  1196     0
    row view                 1515     0     0
    half view                2214     0   224   (vqc: (16, 16) table builds)
    chunk by chunk, 18q       409     0     0
    high-qubit blocks, 18q     50     0     0

The list layout serves run_circuit alone, on states of at most
2**`_SMALL_QUBITS` = 32 amplitudes: the state is a Python list of complex,
each gate runs pair by pair over a cached tuple of (i, i | 2**target)
index pairs, with the half view's diagonal, X-like and general cases, and
the list becomes a complex128 array once, at the end. On 8-16 amplitudes
a numpy call costs far more than the arithmetic it does. Wire cutting runs
many such circuits: the `cut` benchmark's 81 subexperiments have 3-4
qubits, and the `circuits` benchmark's circuits 14-18, so choosing the
layout by size sends each to its faster side. Random depth-10 circuits,
run_circuit on the numpy views against the list, on a 2-vCPU host:

    qubits          1     2     3     4     5     6     7     8
    list speedup  1.6x  3.4x  2.8x  2.2x  1.4x  1.0x  0.5x  0.3x

The list and the views round differently: on those circuits, states
differed by at most 2.6e-16 per amplitude.

run_circuit fuses gates: each wire's consecutive one-qubit gates are
multiplied into one 2x2, applied when a two-qubit gate touches that wire
or at the end of the circuit. The result is not bit-identical to applying
the gates one by one: the products round differently, by about 2e-16 per
amplitude. apply_gate and adjoint_sweep stay gate by gate.

apply_gate and apply_pauli are the one gate API, and work in place on a
single state or on a contiguous (B, 2**n) row stack, whose rows both views
fold into their outer axis. Callers that need the input afterwards copy it.
pauli_inner is the one readout sum, <bra|P|ket> for a Pauli string P,
streamed block by block: run_circuit's norm check, expectation and the
adjoint sweep take it, except the norm check of a list state, a plain sum
of squares over the list. apply_unitary and outer_sum serve the narrow
stacks that meet gradients' ansatz tables: U times each row, and the sum
over rows of conj(bra) (x) ket. Each takes a block of rows at a time, so
that its (rows, 2**n, 2**n) product holds at most one chunk.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

import numpy as np

from pilotq.errors import MemoryCapExceeded, ValidationError
from pilotq.qsim.circuit import Circuit, Gate, PauliObservable

StateVector = np.ndarray

DEFAULT_MEMORY_CAP_BYTES = 2 * 1024**3  # 2 GiB: up to 26 qubits single-state


def memory_bytes(num_qubits: int) -> int:
    """Bytes needed for one dense state of num_qubits qubits."""
    return 16 * (2**num_qubits)


def sim_qubit_capacity(memory_cap_bytes: int) -> int:
    """Widest state vector that fits strictly under the cap."""
    n = max((memory_cap_bytes // 16).bit_length() - 1, 0)
    while n > 0 and memory_bytes(n) >= memory_cap_bytes:
        n -= 1
    return n


def check_memory_cap(num_qubits: int, cap_bytes: int, states: int = 1) -> None:
    """Refuse `states` states of num_qubits qubits unless they fit strictly
    under cap_bytes.

    One state is what a simulation holds besides its fixed scratch of at
    most two chunks (2 MiB), which the count leaves out; arrays it returns,
    such as a probability vector, are the caller's.
    """
    need = states * memory_bytes(num_qubits)
    if need >= cap_bytes:
        raise MemoryCapExceeded(
            f"{states} state(s) of {num_qubits} qubits need {need} bytes; cap is {cap_bytes}"
        )


def _apply_1q_view(v: np.ndarray, m: tuple, axis: int) -> None:
    """In place: the flat 2x2 `m` along `axis`, the qubit's axis."""
    a, b, c, d = m
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
_CHUNK = 2**16  # amplitudes (1 MiB): the scratch bound of a gate or readout step


@functools.cache
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


def _apply_rows(rows: np.ndarray, m: tuple, qubits: tuple[int, ...]) -> None:
    """In place on (R, 64) rows: row[i] <- diag[i] * row[i] + off[i] * row[perm[i]].

    diag and off are looked up by key: the gate's coefficients fill entries
    2 and 3, and entries 0 and 1, where a controlled gate does not act, keep
    each amplitude as it is, through diag, or through off and perm[i] = i
    for X-like gates, whose diag is all zero.
    """
    a, b, c, d = m
    key, perm = _row_plan(qubits)
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


_SMALL_QUBITS = 5  # run_circuit keeps states of at most 2**5 amplitudes as lists


@functools.cache
def _small_pairs(size: int, qubits: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(i, i | 1 << target) for each index i of a `size`-amplitude state
    whose target bit is 0 and, for a gate with a control, control bit 1."""
    bit = 1 << qubits[-1]
    return tuple(
        (i, i | bit)
        for i in range(size)
        if not i & bit and (len(qubits) == 1 or (i >> qubits[0]) & 1)
    )


def _apply_small(state: list[complex], m: tuple, qubits: tuple[int, ...]) -> None:
    """`_apply` on a list state, pair by pair, with the half view's cases."""
    a, b, c, d = m
    pairs = _small_pairs(len(state), qubits)
    if b == 0 and c == 0:  # diagonal: scale each side whose factor is not 1
        if a != 1:
            for i, _ in pairs:
                state[i] *= a
        if d != 1:
            for _, j in pairs:
                state[j] *= d
    elif a == 0 and d == 0:  # X-like: the pair trades places, scaled unless b == c == 1
        if b == 1 and c == 1:
            for i, j in pairs:
                state[i], state[j] = state[j], state[i]
        else:
            for i, j in pairs:
                state[i], state[j] = b * state[j], c * state[i]
    else:
        for i, j in pairs:
            x, y = state[i], state[j]
            state[i], state[j] = a * x + b * y, d * y + c * x


def _apply(state: StateVector | list[complex], m: tuple, qubits: tuple[int, ...]) -> None:
    """In place: the 2x2 `m` on qubits[-1], where qubits[0] is 1 if two are
    given. Every gate application goes through here, and the layout follows
    from the state's type, its row width and the gate's qubits alone: a list
    state to `_apply_small`, a row of more than one chunk to
    `_apply_chunked`, a row of at least 64 amplitudes, for a gate on qubits
    0-5, to the row view, and any other to the half view."""
    if type(state) is list:
        _apply_small(state, m, qubits)
        return
    width = state.shape[-1]
    if width > _CHUNK:
        _apply_chunked(state, m, qubits)
    elif width >= _ROW and max(qubits) < _ROW_QUBITS:
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


def _apply_chunked(state: StateVector, m: tuple, qubits: tuple[int, ...]) -> None:
    """`_apply` on rows of more than one chunk: chunk by chunk when the
    gate's qubits all lie inside a chunk; else a gate on a high qubit runs
    on blocks of one chunk (`_apply_high`), and a gate controlled by a high
    qubit applies its 2x2 to the target in each half where the control is 1.
    """
    if 2 << max(qubits) <= _CHUNK:
        for chunk in state.reshape(-1, _CHUNK):
            _apply(chunk, m, qubits)
    elif len(qubits) == 1:
        _apply_high(state, m, qubits[0], None)
    elif qubits[0] > qubits[1]:
        control, target = qubits
        for half in state.reshape(-1, 2, 1 << control)[:, 1]:
            _apply(half, m, (target,))
    else:
        _apply_high(state, m, qubits[1], qubits[0])


def _apply_high(state: StateVector, m: tuple, target: int, control: int | None) -> None:
    """In place: the 2x2 `m` on a qubit whose halves lie a chunk or more
    apart, where the lower `control` is 1 if one is given. Runs on blocks of
    the (..., 2, 2**target) view holding at most one chunk."""
    run = _CHUNK // 2  # amplitudes per half of a block
    for pair in state.reshape(-1, 2, 1 << target):
        for j in range(0, 1 << target, run):
            block = pair[:, j : j + run]
            if control is not None and 2 << control <= run:  # a bit inside the block
                block = block.reshape(2, -1, 2, 1 << control)[:, :, 1]
            elif control is not None and not (j >> control) & 1:  # 0 across the block
                continue
            _apply_1q_view(block, m, 0)


def _product(m: tuple, n: tuple) -> tuple:
    """The 2x2 product m @ n: n applied first, then m."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def apply_gate(state: StateVector, gate: Gate, *, adjoint: bool = False) -> None:
    """Apply `gate` (or its adjoint) in place to a state or a row stack."""
    m = gate.matrix
    if adjoint:
        a, b, c, d = m
        m = (a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate())
    _apply(state, m, gate.qubits)


def apply_pauli(state: StateVector, letter: str, qubit: int) -> None:
    """Apply the Pauli X, Y or Z to `qubit` in place, on a state or a row stack."""
    apply_gate(state, Gate(letter, (qubit,)))


def zero_state(num_qubits: int) -> StateVector:
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def run_circuit(circuit: Circuit, *, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> StateVector:
    """Apply the circuit to |0...0> and return the final state.

    Each wire's run of one-qubit gates is applied as one fused 2x2 when a
    two-qubit gate touches the wire, or at the end. A state of at most
    2**_SMALL_QUBITS amplitudes is a list until the end.
    """
    n = circuit.num_qubits
    check_memory_cap(n, memory_cap_bytes)
    small = n <= _SMALL_QUBITS
    state = [1 + 0j] + [0j] * ((1 << n) - 1) if small else zero_state(n)
    pending: dict[int, tuple] = {}
    for gate in circuit.gates:
        m = gate.matrix
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
    if small:
        norm = math.sqrt(sum(x.real**2 + x.imag**2 for x in state))
        state = np.array(state, dtype=complex)
    else:
        norm = math.sqrt(pauli_inner(state, state).real)
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"state norm drifted to {norm}")
    return state


def apply_observable(state: StateVector, observable: PauliObservable) -> StateVector:
    """Return observable @ state (sum of Pauli-string applications).

    The first term becomes the result, so besides the state it holds the
    result and, for each later term, that term's copy.
    """
    acc = None
    for coeff, string in observable.terms:
        term = state.copy()
        for q, letter in enumerate(string):
            if letter != "I":
                apply_pauli(term, letter, q)
        term *= coeff
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def expectation(state: StateVector, observable: PauliObservable) -> float:
    """<state|observable|state>, one `pauli_inner` per term."""
    num_qubits = int(round(math.log2(state.size)))
    if observable.num_qubits != num_qubits:
        raise ValidationError(
            f"observable is on {observable.num_qubits} qubits, state has {num_qubits}"
        )
    total = 0.0
    for coeff, string in observable.terms:
        paulis = tuple((q, letter) for q, letter in enumerate(string) if letter != "I")
        total += coeff * pauli_inner(state, state, paulis).real
    return total


@functools.lru_cache(maxsize=256)
def _pauli_plan(paulis: tuple[tuple[int, str], ...], size: int) -> tuple:
    """How `pauli_inner` reads a block of `size` amplitudes, a power of two.

    Each qubit below log2(size) that `paulis` acts on gets an axis of 2 in
    the view `shape`, (-1, gap, 2, gap, 2, ..., gap): `flip` reverses the
    X and Y axes (None when there are none), and `signs` indexes the 1 half
    of each Y and Z axis. A higher qubit is a bit of the block index:
    `xhigh` flips the X and Y bits to find the partner block, and the
    parity of the block index's `zhigh` bits (Y and Z) negates its sum.
    `phase` is (-i)**(number of Y).
    """
    k = size.bit_length() - 1
    shape, flip, axes = [-1], [slice(None)], []
    top, xhigh, zhigh = k, 0, 0
    for q, letter in sorted(paulis, reverse=True):
        if q >= k:
            xhigh |= (letter in "XY") << (q - k)
            zhigh |= (letter in "YZ") << (q - k)
            continue
        shape += [1 << (top - q - 1), 2]
        flip += [slice(None), slice(None, None, -1) if letter in "XY" else slice(None)]
        if letter in "YZ":
            axes.append(len(shape) - 1)
        top = q
    shape.append(1 << top)
    flip.append(slice(None))
    flip = tuple(flip) if any(f.step for f in flip) else None
    signs = tuple((slice(None),) * axis + (1,) for axis in axes)
    phase = (1, -1j, -1, 1j)[sum(letter == "Y" for _, letter in paulis) % 4]
    return tuple(shape), flip, signs, xhigh, zhigh, phase


def _block_sum(bra: np.ndarray, ket: np.ndarray, shape, flip, signs) -> complex:
    """sum(conj(bra) * (P ket)) over one block, for the qubits of P inside
    it, as `_pauli_plan` lays them out; conj(bra) is the only temporary."""
    products = bra.conj().reshape(shape)
    products *= ket.reshape(shape) if flip is None else ket.reshape(shape)[flip]
    for half in signs:
        products[half] *= -1
    return complex(products.sum())


def pauli_inner(
    bra: StateVector, ket: StateVector, paulis: tuple[tuple[int, str], ...] = ()
) -> complex:
    """<bra|P|ket>, summed over the rows of a stack, for the Pauli string P
    given as (qubit, letter) pairs with letters X, Y, Z (none: <bra|ket>).

    (P ket)[k] = phase * (-1)**popcount(k & z) * ket[k ^ x], where x holds
    the X and Y qubits and z the Y and Z qubits, so the sum needs no copy of
    ket: it multiplies conj(bra) by a view of ket with the X and Y axes
    reversed. It is elementwise (np.vdot would call BLAS zdotc) and takes
    the whole state or stack at once when a row holds at most one chunk,
    else one chunk at a time, pairing chunk i with chunk i ^ (x's high bits).
    """
    width = bra.shape[-1]
    shape, flip, signs, xhigh, zhigh, phase = _pauli_plan(paulis, min(width, _CHUNK))
    if width <= _CHUNK:
        return _block_sum(bra, ket, shape, flip, signs) * phase
    bras, kets = bra.reshape(-1, _CHUNK), ket.reshape(-1, _CHUNK)
    total = 0j
    for i, block in enumerate(bras):
        part = _block_sum(block, kets[i ^ xhigh], shape, flip, signs)
        total += -part if (i & zhigh).bit_count() % 2 else part
    return total * phase


def _row_block(width: int) -> int:
    """Rows per block whose (rows, width, width) product is at most one chunk."""
    return max(1, _CHUNK // (width * width))


def apply_unitary(unitary: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """U |ket_b> for each row of a (B, 2**n) stack, as a new stack; the
    products are taken elementwise, a block of rows at a time."""
    out = np.empty_like(kets)
    block = _row_block(kets.shape[1])
    for lo in range(0, len(kets), block):
        out[lo : lo + block] = (unitary * kets[lo : lo + block, None, :]).sum(axis=2)
    return out


def outer_sum(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """M[i, j] = sum over the rows b of conj(bra[b, i]) * ket[b, j], for two
    (B, 2**n) stacks, summed elementwise a block of rows at a time."""
    width = ket.shape[1]
    block = _row_block(width)
    total = np.zeros((width, width), dtype=complex)
    for lo in range(0, len(ket), block):
        total += (bra[lo : lo + block, :, None].conj() * ket[lo : lo + block, None, :]).sum(axis=0)
    return total


def probabilities(state: StateVector) -> np.ndarray:
    probs = np.abs(state)
    probs **= 2
    probs /= probs.sum()
    return probs


def sample(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Measure all qubits `shots` times; keys are little-endian bitstrings.

    Draws as `rng.choice(state.size, shots, p=probabilities(state))` does,
    step by step, in the probability array itself: the counts are the same
    for every seed, without choice's copies of the vector.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    num_qubits = int(round(math.log2(state.size)))
    cdf = probabilities(state)
    np.cumsum(cdf, out=cdf)
    if not (math.isfinite(cdf[-1]) and cdf[-1] > 0):
        raise ValueError(f"probabilities sum to {cdf[-1]}, not a finite positive total")
    cdf /= cdf[-1]
    uniform = np.random.default_rng(seed).random(shots)
    values, counts = np.unique(cdf.searchsorted(uniform, side="right"), return_counts=True)
    # Bit q of each outcome is character q of its key, decoded in one call.
    digits = ((values[:, None] >> np.arange(num_qubits)) & 1) + ord("0")
    text = digits.astype(np.uint8).tobytes().decode("ascii")
    keys = [text[i : i + num_qubits] for i in range(0, len(text), num_qubits)]
    return dict(zip(keys, counts.tolist()))


def counts_probabilities(counts: Mapping[str, int], num_qubits: int) -> np.ndarray:
    """Inverse of `sample`: its little-endian counts as a probability vector."""
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
