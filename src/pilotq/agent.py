"""Pilot agent: the per-pilot executor, and the one judge of what it can run.

`fits` is the feasibility rule; the manager's placement, its
`feasible_pilots` and its NoFeasiblePilot rule all call it. A task fits
while the pilot's walltime has not ended, if it targets no pilot or this
one, and its requires_cores fit the worker slots, its requires_gpus the
allocation's GPUs and its requires_qubits the pilot's qubit capacity: a
qpu_sim pilot's qpu_qubits, and for a classical pilot, which simulates
in-agent, the widest state the simulator's default memory cap admits. A
qpu_sim pilot only samples, so a circuit with shots=0 needs a classical
pilot. `assign` raises ValidationError for a task that does not fit, the
walltime aside. A task that a worker pops once the walltime has ended
fails WalltimeExpired, and the worker hands the rest of the queue back to
the manager, each task with a task_requeued event, the way a retry goes
back. An agent built without `on_terminal` has no one to hand them to:
each fails WalltimeExpired when a worker pops it.

A fixed pool of worker threads pulls tasks off the agent's FIFO queue.
Admission is core-slot based: the pool has `workers` slots (default: the
allocation's total cores) and a task occupies requires_cores of them, so
the sum of requires_cores over running tasks never exceeds the worker
count. The queue is strictly FIFO; a wide task at the head blocks until
enough slots free up, which preserves dispatch order.

Queued tasks stay NEW; the worker that pulls one drives the
schedule -> start -> complete/fail transitions through the shared task
store. The schedule->start gap (the dispatch latency) lies between two
of those transitions, made after the worker popped the task, so neither
the queue wait nor the handoff to the worker is in it. Cancellation of
queued work is a queue removal plus a NEW -> CANCELED transition; a task
that already reached a worker is not cancelable. The store logs the event
of each transition; the agent itself logs agent_ready, agent_stopped and
the task_requeued of a queue it hands back.

Each worker runs one loop with one stop rule: a cancel stop returns at
once, a drain stop once the queue is empty, before or after the grant.
Only while work is queued or a `wait_ready` caller waits does a worker
wait out granted_at_s via `clock.wait_until` (the first through logs
agent_ready), so an idle pilot moves no virtual time. Then it waits for
runnable work with no timeout, as each change that can end a wait
notifies; `wait_ready` waits on it too, for the grant or the stop rule.
The agent refuses dispatch from expires_at_s on.

A classical task calls its registered function through
`backends.run_registered`. A module-level function of an importable module
other than `__main__` holds one of the host's cores and runs in that core's
host worker process (one per core), so two workers' Python code does not
take turns on one interpreter lock; it sees pickled copies of its
arguments, not the caller's memory. Any other function runs in this worker
thread. Circuit simulation runs in the worker thread, holding a core from
the same budget. Either way exec_s covers the whole call, including the
wait for a core and the pipe round trip.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass

from pilotq.backends import (
    PilotAllocation,
    ResourceBackend,
    run_registered,
    run_timed,
    simulate_readout,
)
from pilotq.clock import Clock, WallClock
from pilotq.codec import JsonRecord
from pilotq.errors import AgentStopped, ValidationError, WorkerOversubscription
from pilotq.events import EventLog
from pilotq.model import (
    BackendKind,
    ClassicalPayload,
    QuantumPayload,
    TaskDescription,
    TaskKind,
    TaskRecord,
    TaskResult,
    TaskState,
    evolve,
)
from pilotq.qsim.simulate import DEFAULT_MEMORY_CAP_BYTES, sim_qubit_capacity
from pilotq.store import TaskStore

# The widest circuit a classical pilot simulates in-agent.
_SIM_QUBITS = sim_qubit_capacity(DEFAULT_MEMORY_CAP_BYTES)


@dataclass(frozen=True)
class AgentMetrics(JsonRecord):
    """One pilot's counters. tasks_failed counts tasks that ended FAILED on
    it; an attempt that failed and went back for a retry counts as neither."""

    tasks_done: int = 0
    tasks_failed: int = 0
    busy_cores: int = 0
    queue_depth: int = 0


def task_seed(task_id: str) -> int:
    """Stable sampling seed derived from the task id."""
    return zlib.crc32(task_id.encode("utf-8"))


class PilotAgent:
    def __init__(
        self,
        allocation: PilotAllocation,
        workers: int | None = None,
        *,
        clock: Clock | None = None,
        log: EventLog | None = None,
        backend: ResourceBackend,
        store: TaskStore | None = None,
        functions: dict | None = None,
        on_terminal=None,
    ):
        if workers is None:
            workers = allocation.total_cores
        if workers < 1:
            raise WorkerOversubscription("workers must be >= 1")
        if workers > allocation.total_cores:
            raise WorkerOversubscription(
                f"{workers} workers exceed the allocation's {allocation.total_cores} cores"
            )
        self.allocation = allocation
        self.name = allocation.pilot_name
        self.workers = workers
        self._clock = clock or WallClock()
        self._log = log or EventLog(clock=self._clock)
        self._store = store or TaskStore(self._clock, self._log)
        # Keep the caller's dict, even an empty one: later registrations must reach the agent.
        self._functions = functions if functions is not None else {}
        self._backend = backend
        self._on_terminal = on_terminal

        self._cond = threading.Condition(threading.Lock())
        self._queue: deque[tuple[str, TaskDescription]] = deque()
        self._free_slots = workers
        self._running_count = 0
        self._stop_mode: str | None = None
        self._final_metrics: AgentMetrics | None = None
        self._granted = False
        self._ready_wanted = False
        self._threads: list[threading.Thread] = []

        self._tasks_done = 0
        self._tasks_failed = 0

    # --- lifecycle -------------------------------------------------------------

    def start(self) -> "PilotAgent":
        for i in range(self.workers):
            t = threading.Thread(target=self._worker, daemon=True, name=f"{self.name}-w{i}")
            t.start()
            self._threads.append(t)
        return self

    @property
    def store(self) -> TaskStore:
        return self._store

    def wait_ready(self, timeout: float | None = None) -> bool:
        """True once the pilot is granted; False if the agent stops first or
        `timeout` (wall seconds, None for no limit) runs out."""
        with self._cond:
            self._ready_wanted = True  # idle workers now wait out the grant
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._granted or self._stopped(), timeout)
            return self._granted

    def fits(self, task: TaskDescription) -> bool:
        """Whether this pilot can take `task`: the one feasibility rule."""
        return self._clock.now() < self.allocation.expires_at_s and self._could_run(task)

    def _could_run(self, task: TaskDescription) -> bool:
        """`fits`, the walltime aside."""
        alloc = self.allocation
        qpu = alloc.backend_kind is BackendKind.QPU_SIM
        return (
            task.target in (None, self.name)
            and task.requires_cores <= self.workers
            and task.requires_gpus <= alloc.total_gpus
            and task.requires_qubits <= (alloc.qpu_qubits if qpu else _SIM_QUBITS)
            and not (qpu and task.kind is TaskKind.QUANTUM_CIRCUIT and task.payload.shots == 0)
        )

    def assign(self, record: TaskRecord) -> None:
        """Queue a NEW task for execution on this pilot; ValidationError if it
        does not fit, the walltime aside."""
        desc = record.description
        if not self._could_run(desc):
            raise ValidationError(
                f"task {record.task_id} (cores={desc.requires_cores} gpus={desc.requires_gpus} "
                f"qubits={desc.requires_qubits} target={desc.target}) does not fit pilot {self.name}"
            )
        with self._cond:
            if self._stop_mode is not None:
                raise AgentStopped(f"agent {self.name} is stopped")
            self._queue.append((record.task_id, desc))
            self._cond.notify_all()

    def cancel_queued(self, task_id: str) -> bool:
        """Remove a still-queued task; False once a worker already has it."""
        with self._cond:
            for item in self._queue:
                if item[0] == task_id:
                    self._queue.remove(item)
                    self._cond.notify_all()  # it may have been a wide head
                    return True
        return False

    def take_back_queued(self) -> list[tuple[str, TaskDescription]]:
        """Drain the queue without running it (used when a pilot is removed)."""
        with self._cond:
            items = list(self._queue)
            self._queue.clear()
        return items

    def load(self) -> int:
        """Queued plus running task count (for least-loaded placement)."""
        with self._cond:
            return len(self._queue) + self._running_count

    def metrics(self) -> AgentMetrics:
        with self._cond:
            return AgentMetrics(
                tasks_done=self._tasks_done,
                tasks_failed=self._tasks_failed,
                busy_cores=self.workers - self._free_slots,
                queue_depth=len(self._queue),
            )

    def shutdown(self, drain: bool = True) -> AgentMetrics:
        """Stop the agent; returns final metrics. Safe to call twice."""
        canceled: list[tuple[str, TaskDescription]] = []
        with self._cond:
            if self._final_metrics is not None:
                return self._final_metrics
            if self._stop_mode is None:
                self._stop_mode = "drain" if drain else "cancel"
            if self._stop_mode == "cancel":
                canceled = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for tid, _ in canceled:
            rec = self._store.try_advance(tid, "cancel", reason="agent shutdown")
            if rec is not None:
                self._notify(rec)
        for t in self._threads:
            t.join()
        final = self.metrics()  # the workers are gone: these counts are final
        with self._cond:
            if self._final_metrics is None:
                self._backend.release(self.allocation)
                self._log.emit("pilot", self.name, "agent_stopped", drain=str(drain).lower())
                self._final_metrics = final
            return self._final_metrics

    # --- worker machinery --------------------------------------------------------

    def _stopped(self) -> bool:
        """The stop rule, read under `_cond`: a cancel stop holds at once, a
        drain stop once the queue is empty."""
        stop = self._stop_mode
        return stop == "cancel" or (stop == "drain" and not self._queue)

    def _worker(self) -> None:
        grant = self.allocation.granted_at_s
        while True:
            with self._cond:
                while True:
                    if self._stopped():
                        return
                    if not self._granted and (self._queue or self._ready_wanted):
                        if self._clock.now() < grant:
                            self._clock.wait_until(self._cond, grant)
                            continue
                        self._log.emit(
                            "pilot", self.name, "agent_ready",
                            granted_at_s=grant, cores=self.allocation.total_cores,
                        )
                        self._granted = True
                        self._cond.notify_all()  # wakes wait_ready callers
                    if self._queue and self._queue[0][1].requires_cores <= self._free_slots:
                        break
                    self._cond.wait()
                tid, desc = self._queue.popleft()
                self._free_slots -= desc.requires_cores
                self._running_count += 1
            final = None
            try:
                final = self._run_one(tid, desc)
            finally:
                with self._cond:
                    self._free_slots += desc.requires_cores
                    self._running_count -= 1
                    if final is not None:
                        if final.state is TaskState.DONE:
                            self._tasks_done += 1
                        elif final.state is TaskState.FAILED:
                            self._tasks_failed += 1
                    self._cond.notify_all()
            if final is not None:
                self._notify(final)

    # --- execution ----------------------------------------------------------------

    def _run_one(self, tid: str, desc: TaskDescription) -> TaskRecord | None:
        """Run a popped task; returns the record it ended with, None if it was canceled."""
        store = self._store
        if store.try_advance(tid, "schedule", pilot=self.name) is None:
            return None  # canceled between queue pop and schedule

        error: str | None = None
        if not self.fits(desc):  # assign checked all of it but the walltime
            self._hand_back_queue()
            error = f"WalltimeExpired: pilot {self.name} walltime ended"
        elif store.try_advance(tid, "start") is None:
            return None
        else:
            try:
                result = self._execute_payload(tid, desc)
            except Exception as exc:  # a task failure must never take the worker down
                error = f"{type(exc).__name__}: {exc}"
            else:
                return store.advance(tid, "complete", result=result)
        # a cancel may land between schedule and the walltime check
        return store.try_advance(tid, "fail", error=error[:500])

    def _hand_back_queue(self) -> None:
        """Give the queued tasks back to the manager once the walltime ended."""
        if self._on_terminal is None:
            return
        reason = f"pilot {self.name} walltime ended"
        with self._cond:
            items = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()  # a drain stop may now hold
            # logged under the lock, so a cancel that finds the task gone logs after it
            for tid, _ in items:
                self._log.emit("task", tid, "task_requeued", reason=reason)
        for tid, _ in items:
            self._notify(self._store.get(tid))  # the manager places it again unless canceled

    def _notify(self, record: TaskRecord) -> None:
        if self._on_terminal is not None:
            self._on_terminal(record)

    def _execute_payload(self, tid: str, desc: TaskDescription) -> TaskResult:
        if desc.kind is TaskKind.ZERO_COMPUTE:
            return TaskResult()

        latency = self.allocation.queue_model.per_task_latency_s

        if desc.kind is TaskKind.CLASSICAL_FN:
            payload: ClassicalPayload = desc.payload
            fn = self._functions.get(payload.function)
            if fn is None:
                raise ValidationError(f"no registered function named {payload.function!r}")
            data, exec_s = run_timed(
                self._clock, latency, run_registered, fn, *payload.args, **payload.kwargs
            )
            return TaskResult(data=data, exec_s=exec_s)

        qp: QuantumPayload = desc.payload
        if self.allocation.backend_kind is BackendKind.QPU_SIM:
            return self._backend.qpu_execute(
                qp.circuit, qp.shots, self.allocation, rng_seed=task_seed(tid)
            )

        # classical pilot: simulate in-agent
        result, exec_s = run_timed(
            self._clock, latency, simulate_readout,
            qp.circuit, qp.shots, task_seed(tid), qp.observable,
        )
        return evolve(result, exec_s=exec_s)
