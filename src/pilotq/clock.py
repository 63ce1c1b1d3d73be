"""Clock abstraction.

All timestamps in the package come from an injected clock so tests can run
queue-delay and walltime logic deterministically. The wall clock is a thin
wrapper over time.monotonic; the simulated clock only moves when someone
sleeps or waits on it, which lets a test "wait out" a 37 s queue delay
instantly. `sleep` spends a relative latency; simulated sleeps add up.
`wait_until(cond, deadline)`, called holding `cond`, waits toward an
absolute deadline and the caller re-checks its predicate: on the wall clock
a notify on `cond` ends it early, and the simulated clock sets
now = max(now, deadline), so any number of waiters land on it exactly.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...

    def wait_until(self, cond: threading.Condition, deadline: float) -> None: ...


class WallClock:
    """Monotonic wall-clock time."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait_until(self, cond: threading.Condition, deadline: float) -> None:
        cond.wait(max(0.0, deadline - self.now()))


class SimulatedClock:
    """Thread-safe virtual clock; time advances only via sleep and wait_until."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            with self._lock:
                self._now += seconds

    def wait_until(self, cond: threading.Condition, deadline: float) -> None:
        with self._lock:
            self._now = max(self._now, deadline)
