"""Spans recorded from outside the program.

The traced pass wraps the public functions of each layer (``TARGETS``)
with a timer that appends one record per call to an in-memory list:
name, round, thread, parent record, start, end.  Nothing under ``src/``
knows about it; the wrappers are installed after the pipeline is built
and removed before the pass ends.  ``aggregate`` turns the records into
per-round inclusive times, self times (duration minus direct children)
and per-step times.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

_MISSING = object()
_MARK = "__ledger_wrapped__"

# record layout
NAME, ROUND, THREAD, PARENT, START, END = range(6)

#: span name -> (module, dotted attribute).  A class attribute is patched
#: on the class; a module-level function is patched in every loaded
#: ``repro.*`` module that imported it by name, because callers hold
#: their own reference.  A target that no longer exists is skipped and
#: listed in ``Tracer.missing`` so a refactor shows up as a gap, not as
#: a crash.
TARGETS = [
    ("controller.sample_mask", "repro.controller.policy", "ArchitecturePolicy.sample_mask"),
    ("controller.alpha_step", "repro.controller.reinforce", "ReinforceEstimator.gradient"),
    ("controller.alpha_step", "repro.controller.reinforce", "AlphaOptimizer.step"),
    ("search_space.submodel_state", "repro.search_space.supernet", "Supernet.submodel_state"),
    ("search_space.build", "repro.search_space.supernet", "Supernet.__init__"),
    ("search_space.build", "repro.search_space.supernet", "Supernet.load_state_dict"),
    ("network.assign", "repro.network.transmission", "round_transmission"),
    ("memory.save_round", "repro.federated.memory", "MemoryPools.save_round"),
    ("backend.run_tasks", "repro.federated.executor", "SerialBackend.run_tasks"),
    ("backend.run_tasks", "repro.federated.executor", "ProcessPoolBackend.run_tasks"),
    ("backend.run_tasks", "repro.transport.backend", "SocketBackend.run_tasks"),
    ("transport.encode_task", "repro.transport.codec", "encode_task"),
    ("transport.decode_update", "repro.transport.codec", "decode_update"),
    ("transport.decode_task", "repro.transport.codec", "decode_task"),
    ("transport.encode_update", "repro.transport.codec", "encode_update"),
    ("participant.local_step", "repro.federated.participant", "Participant.execute_task"),
    ("data.sample_batch", "repro.data.loader", "DataLoader.sample_batch"),
    ("nn.forward", "repro.search_space.supernet", "Supernet.__call__"),
    ("nn.forward", "repro.nn.functional", "cross_entropy"),
    ("nn.forward", "repro.nn.tape", "CompiledStep.replay_forward"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("nn.backward", "repro.nn.tape", "CompiledStep.replay_backward"),
    ("server.validate", "repro.federated.validation", "UpdateValidator.validate"),
    ("server.compensate", "repro.federated.compensation", "compensate_alpha_gradient"),
    ("server.compensate", "repro.federated.compensation", "compensate_weight_gradients"),
    ("server.theta_step", "repro.nn.optim", "SGD.step"),
    ("population.begin_round", "repro.population.manager", "PopulationManager.begin_round"),
    ("population.materialize", "repro.population.manager", "PopulationManager.materialize_cohort"),
    ("data.derive_shard", "repro.data.partition", "derive_shard"),
]

#: spans that only occur inside a local step; reported per step
STEP_SPANS = ("search_space.build", "data.sample_batch", "nn.forward", "nn.backward")


def _resolve(module, path: str):
    """``(owner, attribute name)`` of a target; the owner is the class
    for ``Class.method`` and the module itself for a function."""
    owner_name, _, attr = path.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (round, counter name, value); appended from any thread
        self.counts: List[tuple] = []
        self.round = -1
        self.missing: List[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: List[tuple] = []
        #: called after a wrapped function returns: hook(args, kwargs, result)
        self.hooks: Dict[str, Callable] = {}
        # Pool workers are forked with the wrappers in place; there the
        # wrappers only pass through.
        self._passthrough = False
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        self._passthrough = True

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, self.round, threading.get_ident(),
                  stack[-1] if stack else None, time.perf_counter(), 0.0]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (replay warm-up)."""
        self._passthrough = True
        try:
            yield
        finally:
            self._passthrough = False

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.round, name, value))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        clock = time.perf_counter
        spans = self.spans
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if self._passthrough:
                return fn(*args, **kwargs)
            stack = self._stack()
            record = [name, self.round, get_ident(),
                      stack[-1] if stack else None, clock(), 0.0]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            hook = self.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall --------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapped = self._wrap(original, name)
            if owner is not module:
                self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapped)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- write-out -------------------------------------------------------
    def dump(self) -> List[dict]:
        """Spans as name/start/end/parent rows (parent = row index)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            {
                "name": r[NAME],
                "round": r[ROUND],
                "thread": "main" if r[THREAD] == self._main else str(r[THREAD]),
                "parent": None if r[PARENT] is None else index[id(r[PARENT])],
                "start": r[START],
                "end": r[END],
            }
            for r in self.spans
        ]


def wrapped_targets() -> List[str]:
    """Targets that currently resolve to a ledger wrapper (should be
    empty outside the traced blocks)."""
    found = []
    for _, module_name, path in TARGETS:
        module = sys.modules.get(module_name)
        try:
            owner, attr = _resolve(module, path)
            wrapped = hasattr(getattr(owner, attr), _MARK)
        except AttributeError:  # module not loaded, or the target is gone
            continue
        if wrapped:
            found.append(f"{module_name}:{path}")
    return found


def aggregate(tracer: Tracer, rounds: List[int], step_rounds: List[int]) -> dict:
    """Reduce the records of ``rounds`` (tracer round ids).

    Returns ``inclusive[name][round]`` (sum of durations, every thread),
    ``self[name][round]`` (main thread only: duration minus direct
    children, so the names of one round sum to its root span), counter
    sums per round, and per-step totals over the
    ``participant.local_step`` spans of ``step_rounds`` (live or replay).
    """
    wanted = set(rounds)
    step_wanted = set(step_rounds)
    children = defaultdict(float)
    for r in tracer.spans:
        parent = r[PARENT]
        if parent is not None:
            children[id(parent)] += r[END] - r[START]
    inclusive = defaultdict(lambda: defaultdict(float))
    self_time = defaultdict(lambda: defaultdict(float))
    steps = 0
    step_total = defaultdict(float)
    for r in tracer.spans:
        duration = r[END] - r[START]
        name = r[NAME]
        if r[ROUND] in step_wanted:
            if name == "participant.local_step":
                steps += 1
                step_total[name] += duration
                step_total["participant.pack"] += duration - children.get(id(r), 0.0)
            elif name in STEP_SPANS:
                step_total[name] += duration
        if r[ROUND] not in wanted:
            continue
        inclusive[name][r[ROUND]] += duration
        if r[THREAD] == tracer._main:
            self_time[name][r[ROUND]] += duration - children.get(id(r), 0.0)
    counts = defaultdict(lambda: defaultdict(float))
    for round_id, name, value in tracer.counts:
        if round_id in wanted:
            counts[name][round_id] += value
    return {
        "inclusive": inclusive,
        "self": self_time,
        "steps": steps,
        "step_total": step_total,
        "counts": counts,
    }
