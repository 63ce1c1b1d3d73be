"""Structured event log: JSONL stream plus replay helpers.

Every lifecycle step in the middleware appends one EventRecord. The log's
lock covers only the clock read, the append to the in-memory stream and
the write of the file line: `emit` builds the record and encodes the rest
of its line before taking it. Since the stamp is read under the lock from
a monotonic clock, ts_s is non-decreasing within a stream, and the file's
lines are in the stream's order. Who writes which event:

    TaskStore     task_submitted, task_started (attrs carry the dispatch
                  latency; there is no task_scheduled), task_done,
                  task_retry, task_failed, task_canceled: each inside
                  the store transition that causes it
    PilotManager  task_assigned, task_requeued, pilot_created,
                  pilot_removed
    PilotAgent    agent_ready, agent_stopped, task_requeued (the queue
                  of a pilot whose walltime ended)

`replay_task_states` rebuilds the final per-task states from a stream; the
benchmarks assert that this matches the live records exactly.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from pilotq.clock import Clock, WallClock
from pilotq.codec import JsonRecord, encode
from pilotq.model import TaskState

# One compact encoder for every line: json.dumps with non-default
# separators would build a new encoder per event.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class EventRecord(JsonRecord):
    ts_s: float
    entity: str  # "task" | "pilot" | "manager"
    entity_id: str
    event: str
    attrs: dict[str, str] = field(default_factory=dict)


class EventLog:
    """Thread-safe append-only event stream, optionally mirrored to a file."""

    def __init__(self, path: str | Path | None = None, clock: Clock | None = None):
        self._clock = clock or WallClock()
        self._lock = threading.Lock()
        self._records: list[EventRecord] = []
        self._fh = None
        if path is not None:
            p = Path(path)
            p.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(p, "a", encoding="utf-8")

    def emit(self, entity: str, entity_id: str, event: str, **attrs) -> EventRecord:
        # EventRecord has no __post_init__, so emit fills its fields in
        # itself, every one but the timestamp before taking the lock. attrs
        # is this call's own dict: its values become strings in place.
        for k, v in attrs.items():
            if type(v) is not str:
                attrs[k] = str(v)
        rec = object.__new__(EventRecord)
        fields = rec.__dict__
        fields["entity"] = entity
        fields["entity_id"] = entity_id
        fields["event"] = event
        fields["attrs"] = attrs
        # the file line after its timestamp: '{"ts_s":<stamp>' goes in front
        tail = None if self._fh is None else "," + _LINE_ENCODER.encode(encode(fields))[1:] + "\n"
        with self._lock:
            ts = fields["ts_s"] = self._clock.now()
            self._records.append(rec)
            if tail is not None and self._fh is not None:
                # float.__repr__ is how json spells a finite float
                stamp = float.__repr__(ts) if type(ts) is float else _LINE_ENCODER.encode(ts)
                self._fh.write(f'{{"ts_s":{stamp}{tail}')
        return rec

    @property
    def records(self) -> list[EventRecord]:
        with self._lock:
            return list(self._records)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_events(path: str | Path) -> Iterator[EventRecord]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield EventRecord.from_json_dict(json.loads(line))


_EVENT_TO_STATE = {
    "task_submitted": TaskState.NEW,
    "task_retry": TaskState.NEW,
    "task_requeued": TaskState.NEW,
    "task_started": TaskState.RUNNING,
    "task_done": TaskState.DONE,
    "task_failed": TaskState.FAILED,
    "task_canceled": TaskState.CANCELED,
}


def replay_task_states(events: Iterable[EventRecord]) -> dict[str, TaskState]:
    """Final state per task id implied by an event stream."""
    states: dict[str, TaskState] = {}
    for ev in events:
        if ev.entity == "task" and ev.event in _EVENT_TO_STATE:
            states[ev.entity_id] = _EVENT_TO_STATE[ev.event]
    return states


def replay_tallies(events: Iterable[EventRecord]) -> dict[str, int]:
    """State-name -> count of tasks ending in that state."""
    tallies: dict[str, int] = {}
    for state in replay_task_states(events).values():
        tallies[state.value] = tallies.get(state.value, 0) + 1
    return tallies
