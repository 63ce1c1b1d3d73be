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
"""

from __future__ import annotations

import numpy as np

from pilotq.errors import ValidationError
from pilotq.qsim.circuit import Circuit, PauliObservable
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    apply_gate,
    apply_observable,
    check_memory_cap,
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
