"""Clock abstraction.

All timestamps in the package come from an injected clock so tests can run
queue-delay and walltime logic deterministically. The wall clock is a thin
wrapper over time.monotonic; the simulated clock only moves when someone
sleeps on it, which lets a test "wait out" a 37 s queue delay instantly.
Simulated sleeps add up rather than overlap (four threads sleeping 1 s each
move it by 4 s), so only one thread should sleep toward a shared deadline.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class WallClock:
    """Monotonic wall-clock time."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock:
    """Thread-safe virtual clock; time advances only via sleep."""

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
