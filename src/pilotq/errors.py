"""Exception hierarchy shared across the package.

Every error raised by pilotq subclasses PilotQError so callers can catch
the whole family with one except clause. Validation problems (bad
descriptions, malformed payloads) raise ValidationError subclasses and map
to CLI exit code 1; everything that goes wrong at run time maps to exit
code 2.
"""

from __future__ import annotations


class PilotQError(Exception):
    """Base class for all pilotq errors."""


class ValidationError(PilotQError, ValueError):
    """Input rejected before any work started."""


# --- lifecycle / state machine ---------------------------------------------

class IllegalTransition(PilotQError):
    """An event is not legal for the task's current state."""


# --- resource backends ------------------------------------------------------

class DoubleRelease(PilotQError):
    """An allocation was released twice."""


class QubitCapacityExceeded(PilotQError):
    """A circuit is wider than the allocation's QPU supports."""


class HostProcessExited(PilotQError):
    """A host worker process exited while it ran a registered function."""


# --- pilot runtime -----------------------------------------------------------

class WorkerOversubscription(ValidationError):
    """Requested more workers than the allocation has cores."""


class AgentStopped(PilotQError):
    """The agent was already shut down."""


# --- pilot manager -----------------------------------------------------------

class DuplicatePilotName(ValidationError):
    """A pilot with this name already exists."""


class UnknownPilot(PilotQError):
    """No pilot with this name exists."""


class DuplicateTaskId(ValidationError):
    """A task with this id was already submitted."""


class UnknownTaskId(PilotQError):
    """No task with this id was submitted."""


class NoFeasiblePilot(PilotQError):
    """No configured pilot can ever satisfy the task's requirements."""


# --- simulator ---------------------------------------------------------------

class MemoryCapExceeded(PilotQError):
    """The requested state vector would exceed the memory cap."""


# --- circuit cutting ---------------------------------------------------------

class NotCutFriendly(PilotQError):
    """The circuit's cluster structure could not be detected."""


class WidthExceeded(PilotQError):
    """A fragment is wider than the allowed maximum."""


class UnsupportedObservable(ValidationError):
    """The observable cannot be decomposed across the cut."""


# --- CLI ----------------------------------------------------------------------

class NoActiveSession(PilotQError):
    """No manager session snapshot is available for `pq status`."""
