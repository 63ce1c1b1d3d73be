"""Variational quantum classifier on synthetic Gaussian blobs.

Model: one RY(x_q) angle-encoding gate per qubit, a strongly-entangling
trainable ansatz, class scores from (<Z_0>, <Z_1>) through a scaled
softmax, cross-entropy loss. The loss gradient for one sample collapses
into a single adjoint pass with the weighted observable
sum_i scale * (p_i - [i == y]) * Z_i.

A mini-batch runs as one (B, 2**n) row stack, row b for sample b. The
encoding is a product state, so each row is built directly; both Z
readouts are diagonal, so each row's bra is its ket times that row's
weighted sign vector. Every batch of a training step shares the step's
parameters, and so its ansatz:

- An ansatz of at most _TABLE_QUBITS = 4 qubits is taken as tables
  (`qsim.gradients.ansatz_tables`): its unitary U and one generator table
  per parameter, built once per parameter vector in each process and
  cached read-only. A batch applies no gate: its kets are U times the
  encoded rows, and its gradient contracts the sum over rows of
  conj(bra) (x) ket against the tables (`table_gradient`). At 4 qubits
  and 2 layers a 25-row batch takes about 0.3 ms from the tables against
  1.7 ms on the stack, and a build about 1.5 ms (2-vCPU host).
- A wider ansatz is applied gate by gate to the whole stack, and one
  adjoint sweep over the stack sums the per-sample gradients: one forward
  pass and one sweep whatever the batch size. There a build costs more
  than two stack gradients; `qsim.gradients` gives the measurements.

With 2 host worker processes, an epoch's 8 batches build the tables once
in each of the two: 6 of 8 batches reuse them. Inline training builds
them once per epoch, for 7 of 8.

Training distributes mini-batch gradient tasks through a pilot manager
(or runs them in-process when no manager is given) and applies full-batch
descent: batch gradients are summed in fixed batch order, so a run is
deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from pilotq.codec import JsonRecord
from pilotq.errors import PilotQError, ValidationError
from pilotq.model import ClassicalPayload, TaskDescription, TaskKind, TaskState, validate_seed
from pilotq.qsim.circuit import sel_circuit
from pilotq.qsim.gradients import adjoint_sweep, ansatz_tables, table_gradient
from pilotq.qsim.simulate import (
    DEFAULT_MEMORY_CAP_BYTES,
    apply_gate,
    apply_unitary,
    check_memory_cap,
)

BATCH_GRADIENT_FN = "vqc_batch_gradient"
# Ansatz of at most this many qubits take the tables; see qsim.gradients.
_TABLE_QUBITS = 4


@dataclass(frozen=True)
class VqcConfig(JsonRecord):
    n_qubits: int = 4
    layers: int = 2
    samples: int = 200
    seed: int = 7
    epochs: int = 50
    batch_size: int = 25
    learning_rate: float = 0.1
    optimizer: str = "gd"  # or "momentum"
    momentum: float = 0.9
    softmax_scale: float = 4.0

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValidationError("the two-class readout needs n_qubits >= 2")
        if self.layers < 0 or self.epochs < 0:
            raise ValidationError("layers and epochs must be >= 0")
        if self.samples < 2 or self.batch_size < 1:
            raise ValidationError("samples >= 2 and batch_size >= 1 required")
        if not (0 < self.learning_rate < math.inf and 0 < self.softmax_scale < math.inf):
            raise ValidationError("learning_rate and softmax_scale must be finite and > 0")
        if not math.isfinite(self.momentum):
            raise ValidationError("momentum must be finite")
        if self.optimizer not in ("gd", "momentum"):
            raise ValidationError("optimizer must be 'gd' or 'momentum'")
        validate_seed(self.seed)

    @property
    def num_params(self) -> int:
        return 3 * self.n_qubits * self.layers


def make_blobs(samples: int, n_features: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two balanced Gaussian blobs at -0.8 and +0.8 per feature, sigma 0.35."""
    rng = np.random.default_rng(seed)
    per = samples // 2
    x0 = rng.normal(-0.8, 0.35, size=(per, n_features))
    x1 = rng.normal(+0.8, 0.35, size=(samples - per, n_features))
    features = np.concatenate([x0, x1])
    labels = np.concatenate([np.zeros(per, int), np.ones(samples - per, int)])
    order = rng.permutation(samples)
    return features[order], labels[order]


@functools.lru_cache(maxsize=1)
def _ansatz_tables(n_qubits: int, layers: int, params: tuple[float, ...]):
    """The read-only (unitary, tables) of one parameter vector's ansatz.

    One entry: the batches of a training step share its parameter vector,
    and a later step never returns to an earlier one.
    """
    unitary, tables = ansatz_tables(sel_circuit(n_qubits, layers, params))
    unitary.flags.writeable = False
    tables.flags.writeable = False
    return unitary, tables


def batch_gradient(
    params, features, labels, n_qubits: int, layers: int, scale: float
) -> dict:
    """Loss gradient, summed loss, and correct count over one mini-batch.

    Registered with agents under BATCH_GRADIENT_FN; arguments and the
    result are plain lists/floats so the payload stays serialisable. Being
    module-level, it runs in a host worker process (`backends.run_registered`),
    so the gradient tasks of one epoch do not share one interpreter lock.
    An ansatz of at most _TABLE_QUBITS qubits is taken from its tables,
    cached per process by parameter vector, so the batches of one epoch
    that land in the same process build them once between them.
    """
    if any(len(x) != n_qubits for x in features):
        raise ValidationError("one feature per qubit required")
    if len(labels) != len(features):
        raise ValidationError(f"{len(features)} feature rows but {len(labels)} labels")
    bad = [y for y in labels if y not in (0, 1)]
    if bad:
        raise ValidationError(f"labels must be 0 or 1, got {bad[0]!r}")
    params = np.asarray(params, dtype=float)
    if params.shape != (3 * n_qubits * layers,):
        raise ValidationError(f"{3 * n_qubits * layers} parameters required, got {params.shape}")
    rows = len(features)
    # At most three stacks of rows are live at once: ket, bra and an inner
    # product's scratch on the sweep; on the tables path the encoding and
    # U|ket>, then ket and bra, each pair with a block of at most one chunk.
    check_memory_cap(n_qubits, DEFAULT_MEMORY_CAP_BYTES, states=3 * rows)

    # RY(x)|0> = [cos(x/2), sin(x/2)]; qubit q is bit q of the flat index.
    half = np.asarray(features, dtype=float).reshape(rows, n_qubits) / 2.0
    ket = np.ones((rows, 1), dtype=complex)
    for q in range(n_qubits):
        factor = np.stack([np.cos(half[:, q]), np.sin(half[:, q])], axis=1)
        ket = (factor[:, :, None] * ket[:, None, :]).reshape(rows, 2 << q)
    use_tables = n_qubits <= _TABLE_QUBITS
    if use_tables:
        unitary, tables = _ansatz_tables(n_qubits, layers, tuple(params.tolist()))
        ket = apply_unitary(unitary, ket)
    else:
        ansatz = sel_circuit(n_qubits, layers, params)
        for gate in ansatz.gates:
            apply_gate(ket, gate)

    amps2 = ket.real**2 + ket.imag**2
    norms = np.sqrt(amps2.sum(axis=1))
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise RuntimeError(f"state norm drifted to {norms[np.argmax(np.abs(norms - 1.0))]}")
    # signs[i, k] is the eigenvalue of Z_i on basis state k, for i in {0, 1}.
    signs = 1.0 - 2.0 * ((np.arange(2**n_qubits) >> np.arange(2)[:, None]) & 1)
    logits = scale * (amps2[:, None, :] * signs).sum(axis=2)
    del amps2  # keeps the gradient within the three stacks the cap counts
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    y = np.asarray(labels, dtype=int)
    loss_sum = -np.log(np.maximum(probs[np.arange(rows), y], 1e-300)).sum()
    correct = (np.argmax(probs, axis=1) == y).sum()

    weights = scale * (probs - np.eye(2)[y])
    bra = ket * (weights[:, :, None] * signs).sum(axis=1)
    if use_tables:
        grad = table_gradient(tables, ket, bra)
    else:
        grad = adjoint_sweep(ansatz.gates, ket, bra, ansatz.num_params)
    return {"grad": grad.tolist(), "loss_sum": float(loss_sum), "correct": int(correct)}


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    grad_norm: float
    epoch_s: float


@dataclass
class VqcRun:
    config: VqcConfig
    history: list[EpochStats] = field(default_factory=list)
    params: np.ndarray | None = None
    initial_loss: float | None = None

    @property
    def final_accuracy(self) -> float | None:
        return self.history[-1].accuracy if self.history else None

    @property
    def final_loss(self) -> float | None:
        return self.history[-1].loss if self.history else None


def _batch_slices(samples: int, batch_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + batch_size, samples)) for lo in range(0, samples, batch_size)]


def evaluate(config: VqcConfig, params, features, labels) -> tuple[float, float]:
    """(mean loss, accuracy) of the model at `params` over the dataset."""
    out = batch_gradient(
        params, features, labels, config.n_qubits, config.layers, config.softmax_scale
    )
    n = len(labels)
    return out["loss_sum"] / n, out["correct"] / n


def train_vqc(config: VqcConfig, manager=None, on_epoch=None) -> VqcRun:
    """Full-batch descent over summed mini-batch gradients.

    With a manager, each epoch submits one classical_fn task per mini-batch
    (the manager must have BATCH_GRADIENT_FN registered); without one the
    batches run inline. Diverging loss raises PilotQError.
    """
    features, labels = make_blobs(config.samples, config.n_qubits, config.seed)
    rng = np.random.default_rng(config.seed + 1)
    params = rng.uniform(-0.1, 0.1, config.num_params)
    velocity = np.zeros_like(params)
    slices = _batch_slices(config.samples, config.batch_size)
    run = VqcRun(config=config)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        outs = _epoch_outputs(config, manager, params, features, labels, slices, epoch)
        grad_sum = np.zeros_like(params)
        loss_sum = 0.0
        correct = 0
        for out in outs:  # fixed batch order keeps the float sums reproducible
            grad_sum += np.asarray(out["grad"])
            loss_sum += out["loss_sum"]
            correct += out["correct"]
        grad = grad_sum / config.samples  # descend on the mean-loss gradient
        loss = loss_sum / config.samples
        if not math.isfinite(loss):
            raise PilotQError(f"vqc training diverged at epoch {epoch}: loss={loss}")
        if run.initial_loss is None:
            run.initial_loss = loss
        if config.optimizer == "momentum":
            velocity = config.momentum * velocity - config.learning_rate * grad
            params = params + velocity
        else:
            params = params - config.learning_rate * grad
        stats = EpochStats(
            epoch=epoch,
            loss=loss,
            accuracy=correct / config.samples,
            grad_norm=math.sqrt(float((grad * grad).sum())),
            epoch_s=time.perf_counter() - t0,
        )
        run.history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)

    run.params = params
    return run


def _epoch_outputs(config, manager, params, features, labels, slices, epoch) -> list[dict]:
    args_per_batch = [
        (
            params.tolist(),
            features[lo:hi].tolist(),
            labels[lo:hi].tolist(),
            config.n_qubits,
            config.layers,
            config.softmax_scale,
        )
        for lo, hi in slices
    ]
    if manager is None:
        return [batch_gradient(*args) for args in args_per_batch]

    ids = [
        manager.submit_task(
            TaskDescription(
                task_id=f"vqc-e{epoch}-b{i}",
                kind=TaskKind.CLASSICAL_FN,
                payload=ClassicalPayload(function=BATCH_GRADIENT_FN, args=args),
            )
        )
        for i, args in enumerate(args_per_batch)
    ]
    outcome = manager.wait(ids)
    outs = []
    for tid in ids:  # submission order == batch order
        rec = outcome.records[tid]
        if rec.state is not TaskState.DONE:
            raise PilotQError(f"gradient task {tid} ended {rec.state.value}: {rec.error}")
        outs.append(rec.result.data)
    return outs
