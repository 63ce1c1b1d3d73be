"""The four seeded workloads, each driven through pilotq's public API.

A workload builds its inputs from a seed (`inputs`), brings up a fresh fleet
(`fleet`: one manager with its pilots, ready) and runs one measured round on
it (`round`). Every fleet uses `WallClock` with zero modelled latency and runs
exactly 2 pilotq worker threads, next to the benchmark's one submitting
thread. See README.md for why each workload exists and what it predicts.

A round returns a `Round`: its measured window, the operations a user waits
for (one task in `storm`, one batch in `circuits`, one solve in `cut`, one
epoch in `vqc`), and how many checked units were attempted and failed.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

import pilotq
from pilotq import (
    BackendKind,
    PauliObservable,
    PilotDescription,
    PilotManager,
    QuantumPayload,
    QueueModel,
    TaskDescription,
    TaskKind,
    TaskState,
    clustered_circuit,
    expectation,
    random_circuit,
    replay_task_states,
    run_circuit,
    run_cut_workflow,
)
from pilotq import bench as pq_bench
from pilotq.bench.vqc import BATCH_GRADIENT_FN, VqcConfig

TIMEOUT_S = 120.0


@dataclass
class Round:
    window_s: float  # first submit to last terminal (or the call's wall time)
    cpu_s: float  # process CPU time over the same window
    tasks_done: int
    ops_s: Sequence[float]
    attempted: int
    failed: int
    manager: PilotManager | None = None
    extra: dict = field(default_factory=dict)


def _local(name: str, workers: int) -> PilotDescription:
    return PilotDescription(name=name, backend_kind=BackendKind.LOCAL, cores_per_node=workers)


def _ready(manager: PilotManager) -> PilotManager:
    if not manager.wait_pilots_ready(TIMEOUT_S):
        raise RuntimeError("pilots did not become ready")
    return manager


def _local_fleet(name: str, workers: int, **manager_kwargs) -> PilotManager:
    manager = PilotManager(**manager_kwargs)
    manager.create_pilot(_local(name, workers), workers=workers)
    return _ready(manager)


def _clock():
    return time.perf_counter(), time.process_time()


class Storm:
    """Closed loop of ZERO_COMPUTE tasks, 64 in flight, on one 2-worker pilot."""

    name = "storm"
    workers = 2
    setup_reps = 41
    tasks_per_round = 2048
    in_flight = 64

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        # Zero-compute tasks carry no random content; the seed only names them.
        # Every round runs on a fresh fleet, so rounds reuse the same ids.
        return [
            TaskDescription(task_id=f"s{self.seed}-{k}", kind=TaskKind.ZERO_COMPUTE)
            for k in range(self.tasks_per_round)
        ]

    def fleet(self, inputs):
        return _local_fleet("storm", self.workers)

    def round(self, descs, manager) -> Round:
        submit, wait, clock = manager.submit_task, manager.wait, time.perf_counter
        latencies = array("d")  # compact, so the samples barely move peak RSS
        flight: deque[tuple[str, float]] = deque()
        failed = 0
        todo = iter(descs)
        t_start, cpu_start = _clock()
        for desc in todo:
            flight.append((desc.task_id, clock()))
            submit(desc)
            if len(flight) == self.in_flight:
                break
        while flight:
            tid, t_submit = flight[0]
            outcome = wait([tid], TIMEOUT_S)
            latencies.append(clock() - t_submit)
            flight.popleft()
            if outcome.records[tid].state is not TaskState.DONE:
                failed += 1
            desc = next(todo, None)
            if desc is not None:
                flight.append((desc.task_id, clock()))
                submit(desc)
        t_end, cpu_end = _clock()

        # A worker logs task_done just after the store turns the task DONE, so
        # the log is complete only once the agents have stopped.
        manager.shutdown()
        live = {tid: rec.state for tid, rec in manager.store.snapshot().items()}
        if replay_task_states(manager.log.records) != live:
            failed = len(descs)
        return Round(
            window_s=t_end - t_start,
            cpu_s=cpu_end - cpu_start,
            tasks_done=len(descs) - failed,
            ops_s=latencies,
            attempted=len(descs),
            failed=failed,
            manager=manager,
        )


@dataclass(frozen=True)
class CircuitJob:
    task: TaskDescription  # shots=0: exact <Z0>, local pilots only; else sampled counts
    reference: float | None  # <Z0> from a direct run_circuit + expectation


class Circuits:
    """One batch of random depth-10 circuits on a local and a qpu_sim pilot."""

    name = "circuits"
    workers = 2
    setup_reps = 3
    # (exact, sampled) task pairs per width, widest first; each width's
    # share of the compute is about equal, as a gate costs ~4x per 2 qubits.
    pairs_per_width = {18: 1, 16: 2, 14: 8}
    depth = 10
    shots = 1024

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        # The seed picks the circuits; the submission order is fixed (widest
        # first, each exact task followed by a sampled one of the same width)
        # so every seed gives the two pilots the same schedule shape.
        rng = np.random.default_rng(self.seed)
        jobs = []
        for width, count in self.pairs_per_width.items():
            for _ in range(count):
                exact = random_circuit(width, self.depth, int(rng.integers(2**31)))
                obs = PauliObservable.single(width, {0: "Z"})
                ref = expectation(run_circuit(exact), obs)
                jobs.append(CircuitJob(self._task(len(jobs), exact, 0, obs), ref))
                sampled = random_circuit(width, self.depth, int(rng.integers(2**31)))
                jobs.append(CircuitJob(self._task(len(jobs), sampled, self.shots, None), None))
        return jobs

    def _task(self, k, circuit, shots, observable) -> TaskDescription:
        return TaskDescription(
            task_id=f"c{self.seed}-{k}",
            kind=TaskKind.QUANTUM_CIRCUIT,
            payload=QuantumPayload(circuit=circuit, shots=shots, observable=observable),
            requires_qubits=circuit.num_qubits,
        )

    def fleet(self, inputs):
        manager = PilotManager()
        manager.create_pilot(_local("local", 1), workers=1)
        manager.create_pilot(
            PilotDescription(
                name="qpu",
                backend_kind=BackendKind.QPU_SIM,
                qpu_qubits=max(self.pairs_per_width),
                queue_model=QueueModel(),
            ),
            workers=1,
        )
        return _ready(manager)

    def round(self, jobs, manager) -> Round:
        t_start, cpu_start = _clock()
        ids = [manager.submit_task(job.task) for job in jobs]
        outcome = manager.wait(ids, TIMEOUT_S)
        t_end, cpu_end = _clock()

        failed = 0
        for tid, job in zip(ids, jobs):
            rec = outcome.records[tid]
            shots = job.task.payload.shots
            if rec.state is not TaskState.DONE:
                ok = False
            elif shots == 0:
                ok = abs(rec.result.value - job.reference) <= 1e-9
            else:
                ok = sum(rec.result.counts.values()) == shots
            failed += not ok
        return Round(
            window_s=t_end - t_start,
            cpu_s=cpu_end - cpu_start,
            tasks_done=len(ids) - failed,
            ops_s=[t_end - t_start],
            attempted=len(ids),
            failed=failed,
            manager=manager,
        )


@dataclass(frozen=True)
class CutInputs:
    circuit: pilotq.Circuit
    observable: PauliObservable
    oracle: float


class Cut:
    """Repeated exact-mode wire-cutting solves on one 2-worker local pilot."""

    name = "cut"
    workers = 2
    setup_reps = 3
    clusters = (3, 3, 3, 3, 3, 3)
    reps = 2
    max_width = 4

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        circuit = clustered_circuit(list(self.clusters), reps=self.reps, seed=self.seed)
        n = circuit.num_qubits
        observable = PauliObservable.single(n, {0: "Z", n - 1: "Z"})
        return CutInputs(circuit, observable, expectation(run_circuit(circuit), observable))

    def fleet(self, inputs):
        return _local_fleet("cut", self.workers)

    def round(self, inputs, manager) -> Round:
        t_start, cpu_start = _clock()
        try:
            result = run_cut_workflow(
                manager,
                inputs.circuit,
                inputs.observable,
                max_width=self.max_width,
                shots=0,
                oracle=False,
                task_prefix=f"cut{self.seed}",
                timeout=TIMEOUT_S,
            )
        except pilotq.PilotQError:
            result = None
        t_end, cpu_end = _clock()
        ok = result is not None and abs(result.value - inputs.oracle) <= 1e-9
        return Round(
            window_s=t_end - t_start,
            cpu_s=cpu_end - cpu_start,
            tasks_done=len(result.task_ids) if ok else 0,
            ops_s=[t_end - t_start],
            attempted=1,
            failed=0 if ok else 1,
            manager=manager,
            extra={"exec_s": result.exec_s} if result is not None else {},
        )


@dataclass(frozen=True)
class VqcInputs:
    config: VqcConfig
    reference_losses: tuple[float, ...]


class Vqc:
    """VQC training rounds of `epochs` epochs on one 2-worker local pilot."""

    name = "vqc"
    workers = 2
    setup_reps = 3
    epochs = 2

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        config = VqcConfig(seed=self.seed, epochs=self.epochs)
        # In-process training (no manager) is the reference the pilot path must match.
        reference = pq_bench.train_vqc(config)
        return VqcInputs(config, tuple(s.loss for s in reference.history))

    def fleet(self, inputs):
        # Looked up at call time so a traced run registers the traced function.
        functions = {BATCH_GRADIENT_FN: pq_bench.batch_gradient}
        return _local_fleet("vqc", self.workers, functions=functions)

    def round(self, inputs, manager) -> Round:
        marks = [time.monotonic()]
        t_start, cpu_start = _clock()
        try:
            run = pq_bench.train_vqc(
                inputs.config, manager, on_epoch=lambda _stats: marks.append(time.monotonic())
            )
            losses = tuple(s.loss for s in run.history)
        except pilotq.PilotQError:
            losses = ()
        t_end, cpu_end = _clock()
        ok = losses == inputs.reference_losses
        epochs = list(zip(marks, marks[1:]))
        return Round(
            window_s=t_end - t_start,
            cpu_s=cpu_end - cpu_start,
            tasks_done=len(manager.store.snapshot()) if ok else 0,
            ops_s=[b - a for a, b in epochs],
            attempted=self.epochs,
            failed=0 if ok else self.epochs,
            manager=manager,
            extra={"epochs": epochs},
        )


WORKLOADS = {w.name: w for w in (Storm, Circuits, Cut, Vqc)}
