"""Adjoint-mode gradients of Pauli expectation values.

One forward pass plus one reverse sweep over the gate list gives every
trainable angle's derivative from three live state vectors, so the memory
ceiling sits about a factor 3 below plain expectation evaluation. For a
rotation U(t) = exp(-i t G / 2) the derivative is dU/dt = (-i/2) G U, so at
each trainable gate the contribution is 2 Re <bra| (-i/2) G |ket> with the
bra/ket maintained by un-applying gates right to left. simulate's
pauli_inner reads G |ket> through a view of ket, so no copy of it is made.

adjoint_sweep also runs on a contiguous (B, 2**n) row stack: row b holds
the ket or bra of sample b, simulate's in-place gate API applies each gate
to every row at once, and each inner product sums over the rows. One sweep
then gives the gradient of the summed per-row expectations.

ansatz_tables serves narrow circuits that many stacks share at one
parameter vector, as the VQC mini-batches of one training step do. It
moves the per-parameter part of the sweep out of each stack (Jones &
Gacon, arXiv:2009.02823). With V_k the product of the gates after
rotation k = exp(-i t P / 2), dU/dt_k = (-i/2) V_k P V_k^dagger U, so it
returns U as a (2**n, 2**n) matrix and the generator table
G_p = sum of V_k P V_k^dagger over the rotations k with param_index p.
One sweep builds them all: the gates are un-applied right to left to a
(2**n, 2**n) identity row stack with apply_gate, and at each trainable
gate G_k is the Gram table of the stack's rows against the same rows with
apply_pauli's P. A stack then costs no gate: its kets are simulate's
apply_unitary of U, and table_gradient contracts the tables with
M = sum over rows of conj(bra) (x) ket (simulate's outer_sum).
Everything is elementwise, with no BLAS.

Building the tables against one stack gradient (a 25-row VQC batch:
forward pass plus sweep), and a 25-row batch from built tables, median ms
on a 2-vCPU host, with 2 and with 6 layers of sel_circuit:

    qubits   build / stack / from tables    build / stack / from tables
    2         0.48 / 0.80 / 0.16             1.36 / 2.00 / 0.17
    3         0.78 / 1.19 / 0.20             2.28 / 3.19 / 0.20
    4         1.51 / 1.66 / 0.27             4.17 / 4.59 / 0.32
    5         5.42 / 2.12 / 0.32            15.8  / 6.56 / 0.78

Up to 4 qubits a build costs at most one stack gradient, so the tables
pay off from a process's second batch at one parameter vector. The tables
take P * 4**n amplitudes and the build's Gram products 8**n, so from 4 to
5 qubits the build grows 3.6-3.8x while a stack gradient grows 1.3-1.4x:
at 5 qubits a build costs 2.4-2.6 stack gradients and pays off only from
the third or fourth batch, a count that depends on how many batches and
processes share a step. Callers keep the stack sweep from 5 qubits up.
"""

from __future__ import annotations

import numpy as np

from pilotq.errors import ValidationError
from pilotq.qsim.circuit import Circuit, PauliObservable
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    apply_gate,
    apply_observable,
    apply_pauli,
    check_memory_cap,
    outer_sum,
    pauli_inner,
    run_circuit,
)

def adjoint_gradient(
    circuit: Circuit,
    observable: PauliObservable,
    *,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> np.ndarray:
    """d<observable>/d(angle) for every trainable angle, by param_index."""
    n = circuit.num_qubits
    if observable.num_qubits != n:
        raise ValidationError(f"observable is on {observable.num_qubits} qubits, circuit has {n}")
    check_memory_cap(n, memory_cap_bytes, states=3)

    ket = run_circuit(circuit, memory_cap_bytes=memory_cap_bytes)
    bra = apply_observable(ket, observable)
    return adjoint_sweep(circuit.gates, ket, bra, circuit.num_params)


def adjoint_sweep(gates, ket: np.ndarray, bra: np.ndarray, num_params: int) -> np.ndarray:
    """Un-apply `gates` right to left from the final ket and bra = O|ket>.

    ket and bra are the caller's own arrays, one state or a (B, 2**n) row
    stack each, and are overwritten. Returns the gradient by param_index.
    """
    grads = np.zeros(num_params)
    for gate in reversed(gates):
        if gate.param_index is not None:
            # ket currently includes this gate, so G @ ket is G U |prefix>.
            generator = ((gate.qubits[0], gate.generator),)
            grads[gate.param_index] += 2.0 * (pauli_inner(bra, ket, generator) * (-0.5j)).real
        apply_gate(ket, gate, adjoint=True)
        apply_gate(bra, gate, adjoint=True)
    return grads


def ansatz_tables(
    circuit: Circuit, *, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES
) -> tuple[np.ndarray, np.ndarray]:
    """(unitary, tables): the circuit's U as a (2**n, 2**n) matrix, and its
    (num_params, 2**n, 2**n) generator tables.

    tables[p] sums V_k P V_k^dagger over the gates k = exp(-i t P / 2) with
    param_index p, V_k being the product of the gates after k. Built by
    un-applying the gates right to left on an identity row stack: before
    gate k is un-applied, row i holds V_k^dagger e_i, so the table is the
    Gram table <row i| P |row j>; after the last gate, the stack is conj(U).
    """
    n = circuit.num_qubits
    dim = 1 << n
    # the stack, its conjugate and its P copy (a state per row each), the
    # tables (a state per row per parameter) and one Gram product (dim**2 states)
    check_memory_cap(n, memory_cap_bytes, states=(circuit.num_params + 3 + dim) * dim)
    rows = np.zeros((dim, dim), dtype=complex)
    rows.reshape(-1)[:: dim + 1] = 1.0
    tables = np.zeros((circuit.num_params, dim, dim), dtype=complex)
    for gate in reversed(circuit.gates):
        if gate.param_index is not None:
            flipped = rows.copy()
            apply_pauli(flipped, gate.generator, gate.qubits[0])
            tables[gate.param_index] += (rows.conj()[:, None, :] * flipped).sum(axis=2)
        apply_gate(rows, gate, adjoint=True)
    return rows.conj(), tables


def table_gradient(tables: np.ndarray, ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """adjoint_sweep's gradient from `ansatz_tables`' tables, for the final
    (B, 2**n) ket and bra = O|ket> stacks, by param_index.

    dU/dt_p = (-i/2) tables[p] U, so d/dt_p of sum_b <ket_b|O|ket_b> is
    Re(-i sum_ij tables[p]_ij M_ij) = Im(sum_ij tables[p]_ij M_ij), with
    M_ij = sum_b conj(bra_b,i) ket_b,j: the rows enter only through M.
    """
    return (tables * outer_sum(bra, ket)).sum(axis=(1, 2)).imag
