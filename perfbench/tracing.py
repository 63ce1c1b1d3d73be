"""In-memory span tracer that wraps pilotq's public functions from outside.

No file under src/ is edited. `Tracer.install` replaces each traced method on
its class, and each traced function at every binding of it in every pilotq
module (its own and each `from ... import` copy), so a call through any import
path is a span.

A span is the tuple (span id, parent id, name, start, end, request id, thread,
note). For the registered VQC function the note is the thread CPU time the
call used, so its GIL wait shows against its wall time. Times come from
`time.monotonic`, the clock pilotq's `WallClock` stamps records and events
with, so spans line up with both. The request id
is the task id where one applies: `submit_task` scopes it to its call, and a
worker thread takes it from `TaskStore.advance(task_id, "schedule" | "start")`
and keeps it while it runs that task.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

# span name -> (owner, attribute). An owner "module:Class" is a method,
# a bare module path is a function.
TRACED = {
    "model.transition": ("pilotq.model", "transition"),
    "store.add": ("pilotq.store:TaskStore", "add"),
    "store.advance": ("pilotq.store:TaskStore", "advance"),
    "store.try_advance": ("pilotq.store:TaskStore", "try_advance"),
    "events.emit": ("pilotq.events:EventLog", "emit"),
    "manager.submit_task": ("pilotq.manager:PilotManager", "submit_task"),
    "agent.assign": ("pilotq.agent:PilotAgent", "assign"),
    "agent.load": ("pilotq.agent:PilotAgent", "load"),
    "backends.provision": ("pilotq.backends:ResourceBackend", "provision"),
    "backends.qpu_execute": ("pilotq.backends:ResourceBackend", "qpu_execute"),
    "qsim.run_circuit": ("pilotq.qsim.simulate", "run_circuit"),
    "qsim.sample": ("pilotq.qsim.simulate", "sample"),
    "qsim.expectation": ("pilotq.qsim.simulate", "expectation"),
    "qsim.probabilities": ("pilotq.qsim.simulate", "probabilities"),
    "qsim.adjoint_gradient": ("pilotq.qsim.gradients", "adjoint_gradient"),
    "cutting.find_cuts": ("pilotq.cutting", "find_cuts"),
    "cutting.generate_subexperiments": ("pilotq.cutting", "generate_subexperiments"),
    "cutting.fragment_values": ("pilotq.cutting", "fragment_values"),
    "cutting.reconstruct": ("pilotq.cutting", "reconstruct"),
    "bench.vqc.batch_gradient": ("pilotq.bench.vqc", "batch_gradient"),
}

_STICKY_EVENTS = ("schedule", "start")


def _task_rid(args):
    """(request id, sticky) for TaskStore.advance/try_advance(self, task_id, event)."""
    return args[1], args[2] in _STICKY_EVENTS


def _submit_rid(args):
    return args[1].task_id, False


def _circuit_shape(args, kwargs, result, cpu_s):
    circuit = args[0] if args else kwargs["circuit"]
    return circuit.num_qubits, len(circuit.gates)


def _emit_entity(args, kwargs, result, cpu_s):
    return args[1]


def _thread_cpu(args, kwargs, result, cpu_s):
    return cpu_s


def _plan_size(args, kwargs, result, cpu_s):
    subs, terms = result
    return len(subs), len(terms)


_RID_RULES = {
    "store.advance": _task_rid,
    "store.try_advance": _task_rid,
    "manager.submit_task": _submit_rid,
}
_NOTE_RULES = {
    "qsim.run_circuit": _circuit_shape,
    "events.emit": _emit_entity,
    "cutting.generate_subexperiments": _plan_size,
    "bench.vqc.batch_gradient": _thread_cpu,
}
_CPU_TIMED = frozenset({"bench.vqc.batch_gradient"})


class Tracer:
    """Collects spans while `active`; `drain` hands them over and clears."""

    def __init__(self):
        self.active = False
        self.bindings: list[str] = []
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._tls = threading.local()

    def install(self) -> None:
        for name, (owner, attr) in TRACED.items():
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                self.bindings.append(f"{module_name}.{cls_name}.{attr}")
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "pilotq" or mod_name.startswith("pilotq.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.bindings.append(f"{mod_name}.{key}")

    def drain(self) -> list[tuple]:
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, name, fn):
        tracer, tls, ids, now = self, self._tls, self._ids, time.monotonic
        rid_rule = _RID_RULES.get(name)
        note_rule = _NOTE_RULES.get(name)
        cpu_clock = time.thread_time if name in _CPU_TIMED else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
                tls.rid = None
                tls.thread = threading.current_thread().name
            outer_rid = tls.rid
            sticky = True
            if rid_rule is not None:
                tls.rid, sticky = rid_rule(args)
            rid = tls.rid
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            note = None
            c0 = cpu_clock() if cpu_clock is not None else 0.0
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                if note_rule is not None:
                    cpu_s = cpu_clock() - c0 if cpu_clock is not None else None
                    note = note_rule(args, kwargs, result, cpu_s)
                return result
            finally:
                t1 = now()
                stack.pop()
                if not sticky:
                    tls.rid = outer_rid
                tracer._spans.append((sid, parent, name, t0, t1, rid, tls.thread, note))

        traced.__wrapped__ = fn
        return traced


def write_spans(fh, spans) -> None:
    """Append spans as tab-separated lines (times in microseconds)."""
    for sid, parent, name, t0, t1, rid, thread, note in spans:
        fh.write(f"{sid}\t{parent}\t{name}\t{t0 * 1e6:.1f}\t{t1 * 1e6:.1f}\t{rid or ''}\t{thread}\t{note or ''}\n")
