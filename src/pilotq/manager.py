"""Pilot manager: owns pilots, matches tasks to them, tracks lifecycles.

Scheduling model
----------------
Submitted tasks enter a FIFO pending queue. A scheduling pass walks it in
order and hands each task to the least-loaded feasible pilot (ties go to
the pilot with fewer assignments so far, then to the smallest name);
tasks with no feasible pilot right now stay pending, and tasks that no
configured pilot could *ever* satisfy fail with NoFeasiblePilot. A pass
reads each live agent's load once and counts its own assignments forward.
Passes run on submit, on a retry or a task an expired pilot hands back,
and on pilot add/remove, plus the explicit `schedule_pending` entry point
for deterministic batch placement in tests. Completions run no pass: a
task stays pending only while no live pilot fits it, and only
`create_pilot` adds a live pilot.

Placement asks each pilot's agent whether it `fits` a task, the one
feasibility rule (see `pilotq.agent`), and reads the agent's load.

"Configured" pilots are every pilot ever created, including removed ones:
a task that fits a temporarily removed pilot waits instead of failing,
and with no pilots configured at all every task waits for one to appear.
`shutdown` cancels whatever is still pending once every pilot is gone.
The task store writes every task-lifecycle event into the manager's log.
Descriptions validate themselves when built, so the manager runs no check
of its own on what it is given. Lock order: the manager's plain Lock, then
an agent's or the store's, then the log's (see `pilotq.store`).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

from pilotq.agent import AgentMetrics, PilotAgent
from pilotq.backends import ResourceBackend
from pilotq.clock import Clock, WallClock
from pilotq.errors import DuplicatePilotName, UnknownPilot
from pilotq.events import EventLog
from pilotq.model import PilotDescription, TaskDescription, TaskRecord, TaskState, new_record
from pilotq.store import TaskStore


@dataclass(frozen=True)
class WaitResult:
    records: dict[str, TaskRecord]
    complete: bool


@dataclass(frozen=True)
class CancelOutcome:
    record: TaskRecord
    canceled: bool


class PilotManager:
    def __init__(
        self,
        *,
        clock: Clock | None = None,
        log: EventLog | None = None,
        functions: dict | None = None,
        auto_schedule: bool = True,
    ):
        self._clock = clock or WallClock()
        self._log = log or EventLog(clock=self._clock)
        self._backend = ResourceBackend(clock=self._clock)
        self._functions = dict(functions or {})
        self._auto = auto_schedule
        self._store = TaskStore(self._clock, self._log)
        self._lock = threading.Lock()
        self._pilots: dict[str, PilotAgent] = {}
        self._configured: dict[str, PilotAgent] = {}
        self._pending: deque[str] = deque()
        self._assigned: Counter[str] = Counter()  # assignments per pilot, for ties
        self._started_at = self._clock.now()

    # --- registry ---------------------------------------------------------------

    @property
    def store(self) -> TaskStore:
        return self._store

    @property
    def log(self) -> EventLog:
        return self._log

    def register_function(self, name: str, fn) -> None:
        self._functions[name] = fn

    # --- pilots -------------------------------------------------------------------

    def create_pilot(self, desc: PilotDescription, workers: int | None = None) -> str:
        with self._lock:
            if desc.name in self._pilots:
                raise DuplicatePilotName(desc.name)
            alloc = self._backend.provision(desc)
            try:
                agent = PilotAgent(
                    alloc,
                    workers,
                    clock=self._clock,
                    log=self._log,
                    store=self._store,
                    functions=self._functions,
                    backend=self._backend,
                    on_terminal=self._on_agent_terminal,
                ).start()
            except BaseException:  # no agent holds the allocation to release it later
                self._backend.release(alloc)
                raise
            self._pilots[desc.name] = agent
            self._configured[desc.name] = agent
            self._assigned[desc.name] = 0
            self._log.emit(
                "pilot", desc.name, "pilot_created",
                backend=desc.backend_kind.value,
                total_cores=alloc.total_cores,
                total_gpus=alloc.total_gpus,
                qpu_qubits=alloc.qpu_qubits,
                granted_at_s=alloc.granted_at_s,
            )
            if self._auto:
                self._schedule_pass()
        return desc.name

    def remove_pilot(self, name: str, drain: bool = True) -> AgentMetrics:
        with self._lock:
            agent = self._pilots.pop(name, None)
            if agent is None:
                raise UnknownPilot(name)
            if not drain:
                reclaimed = agent.take_back_queued()
                for tid, _ in reversed(reclaimed):
                    self._pending.appendleft(tid)
                    self._log.emit("task", tid, "task_requeued", reason=f"pilot {name} removed")
                if self._auto:
                    self._schedule_pass()
        # Shutdown outside the lock: the workers it joins may still hand a
        # retry back, and the retry callback needs the manager lock.
        metrics = agent.shutdown(drain=drain)
        self._log.emit(
            "pilot", name, "pilot_removed",
            drain=str(drain).lower(),
            tasks_done=metrics.tasks_done,
            tasks_failed=metrics.tasks_failed,
        )
        return metrics

    def pilot_names(self) -> list[str]:
        with self._lock:
            return sorted(self._pilots)

    def wait_pilots_ready(self, timeout: float | None = None) -> bool:
        """True once every live pilot is ready; `timeout` is one wall-time
        budget shared by all of them."""
        with self._lock:
            agents = list(self._pilots.values())
        if timeout is None:
            return all(a.wait_ready() for a in agents)
        deadline = time.monotonic() + timeout
        return all(a.wait_ready(max(0.0, deadline - time.monotonic())) for a in agents)

    # --- tasks ----------------------------------------------------------------------

    def submit_task(self, desc: TaskDescription) -> str:
        with self._lock:
            rec = new_record(desc, self._clock.now())
            self._store.add(rec)  # raises DuplicateTaskId
            self._pending.append(desc.task_id)
            if self._auto:
                self._schedule_pass()
        return desc.task_id

    def schedule_pending(self) -> list[tuple[str, str]]:
        """Run one scheduling pass; returns (task_id, pilot_name) assignments."""
        with self._lock:
            return self._schedule_pass()

    def wait(self, task_ids, timeout: float | None = None) -> WaitResult:
        ids = list(task_ids)
        complete = self._store.wait_terminal(ids, timeout)
        records = {tid: self._store.get(tid) for tid in ids}
        return WaitResult(records=records, complete=complete)

    def cancel(self, task_id: str) -> CancelOutcome:
        with self._lock:
            # at most one live agent holds the task in its queue
            for agent in self._pilots.values():
                if agent.cancel_queued(task_id):
                    break
            final = self._store.try_advance(task_id, "cancel", reason="user request")
            if final is None:
                return CancelOutcome(self._store.get(task_id), False)
            if task_id in self._pending:
                self._pending.remove(task_id)
            return CancelOutcome(final, True)

    def task(self, task_id: str) -> TaskRecord:
        return self._store.get(task_id)

    # --- scheduling core --------------------------------------------------------------

    def feasible_pilots(self, task: TaskDescription) -> list[str]:
        """Live pilots that could run this task, sorted by name."""
        with self._lock:
            return sorted(name for name, agent in self._pilots.items() if agent.fits(task))

    def _schedule_pass(self) -> list[tuple[str, str]]:
        assignments: list[tuple[str, str]] = []
        still: deque[str] = deque()
        loads = {name: agent.load() for name, agent in self._pilots.items()}
        while self._pending:
            tid = self._pending.popleft()
            rec = self._store.get(tid)
            if rec.state is not TaskState.NEW:
                continue
            task = rec.description
            candidates = [name for name in loads if self._pilots[name].fits(task)]
            if candidates:
                name = min(candidates, key=lambda nm: (loads[nm], self._assigned[nm], nm))
                loads[name] += 1
                self._assigned[name] += 1
                # log before handing over: the agent may start the task at once
                self._log.emit(
                    "task", tid, "task_assigned",
                    pilot=name,
                    requires_cores=task.requires_cores,
                    requires_gpus=task.requires_gpus,
                    requires_qubits=task.requires_qubits,
                )
                self._pilots[name].assign(rec)
                assignments.append((tid, name))
            elif self._configured and not any(a.fits(task) for a in self._configured.values()):
                self._store.advance(
                    tid, "fail",
                    error="NoFeasiblePilot: no configured pilot satisfies "
                    f"cores={task.requires_cores} gpus={task.requires_gpus} "
                    f"qubits={task.requires_qubits} target={task.target}",
                )
            else:
                still.append(tid)
        self._pending = still
        return assignments

    def _on_agent_terminal(self, record: TaskRecord) -> None:
        if record.state is TaskState.NEW:
            # a failed attempt with retries left, or a task from the queue of
            # a pilot whose walltime ended: back into the queue
            with self._lock:
                self._pending.append(record.task_id)
                if self._auto:
                    self._schedule_pass()

    # --- introspection -----------------------------------------------------------------

    def status_snapshot(self) -> dict:
        with self._lock:
            pilots = []
            for name in sorted(self._pilots):
                agent = self._pilots[name]
                m = agent.metrics()
                pilots.append(
                    {
                        "name": name,
                        "backend_kind": agent.allocation.backend_kind.value,
                        "total_cores": agent.allocation.total_cores,
                        "queue_depth": m.queue_depth,
                        "busy_cores": m.busy_cores,
                        "tasks_done": m.tasks_done,
                        "tasks_failed": m.tasks_failed,
                    }
                )
            tallies: dict[str, int] = {}
            for rec in self._store.snapshot().values():
                tallies[rec.state.value] = tallies.get(rec.state.value, 0) + 1
            return {
                "ts_s": self._clock.now(),
                "uptime_s": self._clock.now() - self._started_at,
                "pilots": pilots,
                "pending": len(self._pending),
                "tasks": tallies,
            }

    def shutdown(self, drain: bool = True) -> None:
        if not drain:
            # Cancel every queue before removing any pilot: a removal hands
            # its queue to the pilots still live, and they would start it.
            with self._lock:
                for agent in self._pilots.values():
                    for tid, _ in agent.take_back_queued():
                        self._store.try_advance(tid, "cancel", reason="manager shutdown")
        for name in list(self.pilot_names()):
            try:
                self.remove_pilot(name, drain=drain)
            except UnknownPilot:
                pass
        # no pilot is left to run what is pending, e.g. a retry handed back mid-shutdown
        with self._lock:
            for tid in self._pending:
                self._store.try_advance(tid, "cancel", reason="manager shutdown")
            self._pending.clear()
