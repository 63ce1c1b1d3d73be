"""Thread-safe task-record store shared by the manager and its agents.

All record mutations funnel through `advance`, which applies the pure
`transition` function under one lock; waiters block on the store's
condition until the ids they care about reach terminal states. The store
is the only writer of task-lifecycle events: each is logged inside the
locked section of the transition that causes it, before waiters wake, so
the log never lags the records. Lock order: store lock, then log lock.
"""

from __future__ import annotations

import threading
from collections import deque

from pilotq.clock import Clock, WallClock
from pilotq.errors import DuplicateTaskId, IllegalTransition, UnknownTaskId
from pilotq.events import EventLog
from pilotq.model import TaskRecord, TaskResult, TaskState, transition


class TaskStore:
    def __init__(self, clock: Clock | None = None, log: EventLog | None = None):
        self._clock = clock or WallClock()
        self._log = log or EventLog(clock=self._clock)
        self._records: dict[str, TaskRecord] = {}
        self._lock = threading.RLock()
        self._terminal_event = threading.Condition(self._lock)

    def add(self, record: TaskRecord) -> None:
        with self._lock:
            if record.task_id in self._records:
                raise DuplicateTaskId(record.task_id)
            self._records[record.task_id] = record
            self._log.emit(
                "task", record.task_id, "task_submitted", kind=record.description.kind.value
            )

    def get(self, task_id: str) -> TaskRecord:
        with self._lock:
            try:
                return self._records[task_id]
            except KeyError:
                raise UnknownTaskId(task_id) from None

    def snapshot(self) -> dict[str, TaskRecord]:
        with self._lock:
            return dict(self._records)

    def advance(
        self,
        task_id: str,
        event: str,
        *,
        pilot: str | None = None,
        result: TaskResult | None = None,
        error: str | None = None,
        reason: str | None = None,
    ) -> TaskRecord:
        """Apply and log one lifecycle event; raises IllegalTransition if not legal."""
        with self._lock:
            before = self.get(task_id)
            rec = transition(
                before, event, self._clock.now(), pilot=pilot, result=result, error=error
            )
            self._records[task_id] = rec
            if rec.state is not TaskState.SCHEDULED:  # task_started logs the dispatch
                assigned = before.assigned_pilot or rec.assigned_pilot
                attrs = {} if assigned is None else {"pilot": assigned}
                if rec.state is TaskState.RUNNING:
                    name, ts = "task_started", rec.timestamps
                    attrs["dispatch_ms"] = f"{(ts.start_s - ts.schedule_s) * 1e3:.3f}"
                elif rec.state is TaskState.DONE:
                    name, exec_s = "task_done", rec.result.exec_s
                    attrs["exec_s"] = "" if exec_s is None else f"{exec_s:.6f}"
                elif rec.state is TaskState.NEW:
                    name = "task_retry"
                    attrs.update(attempt=rec.attempt, error=error[:200])
                elif rec.state is TaskState.FAILED:
                    name = "task_failed"
                    attrs["error"] = rec.error[:200]
                else:
                    name = "task_canceled"
                    attrs["reason"] = reason
                self._log.emit("task", task_id, name, **attrs)
            if rec.terminal:
                self._terminal_event.notify_all()
            return rec

    def try_advance(self, task_id: str, event: str, **kwargs) -> TaskRecord | None:
        """Like advance, but returns None when the event is not legal."""
        with self._lock:
            try:
                return self.advance(task_id, event, **kwargs)
            except IllegalTransition:
                return None

    def wait_terminal(self, task_ids, timeout: float | None = None) -> bool:
        """Block until every id is terminal; False on timeout.

        Raises UnknownTaskId before waiting. The timeout is wall time (the
        caller's patience), independent of the domain clock used for record
        timestamps. Terminal states are final: a terminal id is not rechecked.
        """
        with self._lock:
            pending = deque(tid for tid in task_ids if not self.get(tid).terminal)

            def settled() -> bool:
                while pending and self._records[pending[0]].terminal:
                    pending.popleft()
                return not pending

            return self._terminal_event.wait_for(settled, timeout)
