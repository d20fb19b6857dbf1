"""Pluggable execution engines for participant local steps.

The server round loop produces a list of :class:`~repro.federated.participant.LocalStepTask`
messages and hands them to an :class:`ExecutionBackend`; the backend
returns one :class:`TaskResult` per task, **in task order**, each
carrying either the participant's :class:`~repro.federated.participant.ParticipantUpdate`
or a failure record.  Three backends ship:

* :class:`SerialBackend` — runs every task in-process, in order.  This
  is the default and matches the historical single-process behaviour.
* ``ProcessPoolBackend`` (``backend="process"``) — local worker
  processes forked from this one, speaking the framed protocol over
  loopback: :class:`repro.transport.SocketBackend`'s auto-spawn path
  under its own name, lossless and without wire chaos.
* :class:`repro.transport.SocketBackend` (``backend="socket"``) — the
  networked runtime: auto-spawned or external worker daemons
  (``python -m repro serve``) over TCP.

The two worker backends are one runtime, so they share one failure
contract: a per-task deadline, up to ``task_retries`` retries on a
different worker when one is alive, and a task out of retries degrades
its participant to *offline for that round* (feeding the existing
soft-synchronisation path) instead of killing the search.

Determinism contract: every source of randomness a local step consumes is
inside the task (``batch_seed``, ``mask``, ``state``), so seeded runs are
bit-identical across backends regardless of worker scheduling.  The
equivalence is enforced by ``tests/test_executor.py``.

Telemetry: every backend emits ``executor.dispatch`` events and an
``executor.inflight`` gauge; the worker backends add
``executor.task_retry`` / ``executor.worker_crash`` and the wire's
``transport.*`` events (worker named ``host:port``).  Worker-side spans
ride back inside the update; all events are emitted from the
coordinating process.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.search_space import SupernetConfig
from repro.telemetry import Telemetry
from repro.telemetry.tracing import SpanRecorder, emit_task_trace, null_span

from . import compiled
from .participant import (
    LocalStepTask,
    Participant,
    ParticipantSpec,
    ParticipantUpdate,
    run_local_group,
)
from .versioning import resolve_task

__all__ = [
    "BACKENDS",
    "ParticipantSpec",
    "TaskResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "build_backend",
]

#: Names accepted by :func:`build_backend`, ``ExperimentConfig.backend``,
#: and the CLI ``--backend`` flag.  ``socket`` is the networked runtime
#: (:mod:`repro.transport`): worker daemons over TCP.
BACKENDS = ("serial", "process", "socket")


@dataclasses.dataclass
class TaskResult:
    """Outcome of one dispatched task.

    ``update is None`` means the task failed permanently (worker crash,
    repeated timeout, or repeated exception); the server records the
    participant as offline for the round.
    """

    participant_id: int
    update: Optional[ParticipantUpdate]
    attempts: int = 1
    error: Optional[str] = None
    #: wall-clock seconds the task spent waiting before compute started
    queue_s: float = 0.0
    #: wall-clock seconds of actual compute (as measured by the executor)
    compute_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.update is not None


class ExecutionBackend(Protocol):
    """What the server requires of an execution engine."""

    #: short name surfaced in telemetry and reports ("serial", "process")
    name: str

    def run_tasks(self, tasks: Sequence[LocalStepTask]) -> List[TaskResult]:
        """Execute ``tasks``, returning results in task order."""
        ...

    def close(self) -> None:
        """Release worker resources.  Idempotent; backends may lazily
        re-acquire them if used again afterwards."""
        ...


class SerialBackend:
    """In-process, in-order execution — the reference backend.

    ``fault_hook`` is called with each task before it runs (an injection
    point for latency/chaos experiments; a hooked task runs alone).  A
    hook failure propagates, since there is no worker boundary to absorb
    it.  The worker backends inject faults at the wire instead, through
    a :class:`repro.faults.NetworkFaultPlan`.
    """

    name = "serial"

    def __init__(
        self,
        participants: Sequence[Participant],
        supernet_config: SupernetConfig,
        telemetry: Optional[Telemetry] = None,
        fault_hook: Optional[Callable[[LocalStepTask], None]] = None,
        population: Optional[object] = None,
    ):
        self._participants = {p.participant_id: p for p in participants}
        self._supernet_config = supernet_config
        self.telemetry = telemetry or Telemetry.disabled()
        self._fault_hook = fault_hook
        #: population spec source (``repro.population.PopulationContext``,
        #: duck-typed): lets :meth:`provision` swap in per-round cohorts.
        self._population = population

    def provision(self, participants: Sequence[Participant]) -> None:
        """Install this round's materialised cohort (population mode).

        The server materialises cohort participants anyway (it owns
        their batch-seed counters), so the serial backend reuses those
        live objects instead of re-deriving shards — the working set is
        exactly one cohort, never the whole population.
        """
        self._participants = {p.participant_id: p for p in participants}

    def run_tasks(self, tasks: Sequence[LocalStepTask]) -> List[TaskResult]:
        telemetry = self.telemetry
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        done = 0
        for group in self._groups(tasks):
            if telemetry.enabled:
                telemetry.gauge("executor.inflight", len(tasks) - done)
                for index in group:
                    telemetry.emit(
                        "executor.dispatch",
                        backend=self.name,
                        round=tasks[index].round_index,
                        participant=tasks[index].participant_id,
                    )
            start = time.perf_counter()
            if len(group) == 1:
                updates = [self._run_one(tasks[group[0]])]
            else:
                members = [tasks[index] for index in group]
                updates = run_local_group(
                    members,
                    [
                        ParticipantSpec.from_participant(self._participants[t.participant_id])
                        for t in members
                    ],
                    self._supernet_config,
                )
            wall = (time.perf_counter() - start) / len(group)
            for index, update in zip(group, updates):
                if telemetry.enabled:
                    telemetry.observe("executor.task_queue_s", 0.0)
                    telemetry.observe("executor.task_compute_s", wall)
                results[index] = TaskResult(
                    tasks[index].participant_id, update, attempts=1, compute_s=wall
                )
            done += len(group)
        if telemetry.enabled:
            telemetry.gauge("executor.inflight", 0)
        return results  # type: ignore[return-value]

    def _groups(self, tasks: Sequence[LocalStepTask]) -> List[List[int]]:
        """Task indices per step, in the order the steps run.

        Tasks stack when their mask, batch size and image shape match and
        their ``state`` arrays are the same objects (within a round,
        same-mask tasks share the supernet's live views), in balanced
        chunks whose stacked input fits the byte budget of
        :func:`~repro.federated.compiled.group_chunks`.  A task that
        carries a trace context, or meets a fault hook, runs alone.
        """
        itemsize = np.dtype(self._supernet_config.compute_dtype).itemsize
        buckets: Dict[object, Tuple[int, List[int]]] = {}
        for index, task in enumerate(tasks):
            key: object = index
            member_bytes = 0
            if self._fault_hook is None and task.trace is None:
                participant = self._participants[task.participant_id]
                rows = min(participant.loader.batch_size, len(participant.dataset))
                shape = participant.dataset.image_shape
                key = (task.mask, rows, shape, tuple(map(id, task.state.values())))
                member_bytes = rows * math.prod(shape) * itemsize
            buckets.setdefault(key, (member_bytes, []))[1].append(index)
        return [
            chunk
            for member_bytes, group in buckets.values()
            for chunk in compiled.group_chunks(group, member_bytes)
        ]

    def _run_one(self, task: LocalStepTask) -> ParticipantUpdate:
        """One task through :meth:`Participant.execute_task`, with the
        fault hook and worker-side tracing."""
        telemetry = self.telemetry
        if self._fault_hook is not None:
            self._fault_hook(task)
        recorder = None
        dispatch_ts = 0.0
        if task.trace is not None:
            dispatch_ts = telemetry.now()
            recorder = SpanRecorder(profile_ops=task.trace.profile_ops)
        try:
            update = self._participants[task.participant_id].execute_task(
                task, self._supernet_config, recorder=recorder
            )
        except BaseException:
            if recorder is not None:
                recorder.abort()
            raise
        if recorder is not None:
            update.spans = recorder.payload()
            emit_task_trace(
                telemetry,
                backend=self.name,
                task=task,
                update=update,
                dispatch_ts=dispatch_ts,
                receive_ts=telemetry.now(),
                worker="local",
            )
        return update

    def close(self) -> None:  # nothing to release
        pass


# ----------------------------------------------------------------------
# Worker-side task body
# ----------------------------------------------------------------------

#: Most derived specs a worker keeps before evicting the oldest —
#: bounds worker memory to O(cache + params) under heavy churn.
_SPEC_CACHE_LIMIT = 1024


def resolve_spec(
    specs: Dict[int, ParticipantSpec], population: Optional[object], participant_id: int
) -> ParticipantSpec:
    """A task's spec on a worker: the installed map first, else derived
    from the population context shipped at init (any cohort member can
    land on any worker) and cached in ``specs``, FIFO and bounded."""
    spec = specs.get(participant_id)
    if spec is not None:
        return spec
    if population is None:
        raise KeyError(
            f"no spec for participant {participant_id} (init not received?)"
        )
    spec = population.spec(participant_id)  # type: ignore[attr-defined]
    if len(specs) >= _SPEC_CACHE_LIMIT:
        specs.pop(next(iter(specs)))
    specs[participant_id] = spec
    return spec


def run_worker_task(
    task: LocalStepTask,
    param_cache: Dict[str, tuple],
    specs: Dict[int, ParticipantSpec],
    population: Optional[object],
    supernet_config: SupernetConfig,
):
    """The worker-side task body (:mod:`repro.transport.worker`).

    Resolves the task's delta references against ``param_cache``
    (raising :class:`DeltaCacheMiss` when this worker lacks one), finds
    or derives the participant's spec and runs the local step; returns
    ``(update, compute_wall_s)``.  Worker-side spans are recorded when
    the task carries a trace context and ride back in ``update.spans``.
    """
    recorder = None
    if task.trace is not None:
        recorder = SpanRecorder(profile_ops=task.trace.profile_ops)
    span = recorder.span if recorder is not None else null_span
    try:
        with span("deserialize"):
            task = resolve_task(task, param_cache)
        spec = resolve_spec(specs, population, task.participant_id)
        start = time.perf_counter()
        (update,) = run_local_group([task], [spec], supernet_config, recorder)
        wall = time.perf_counter() - start
        if recorder is not None:
            update.spans = recorder.payload()
        return update, wall
    except BaseException:
        # The op hook is process-global in this worker — never leak it.
        if recorder is not None:
            recorder.abort()
        raise


def build_backend(
    name: str,
    participants: Sequence[Participant],
    supernet_config: SupernetConfig,
    num_workers: Optional[int] = None,
    task_timeout_s: float = 60.0,
    task_retries: int = 1,
    telemetry: Optional[Telemetry] = None,
    socket_workers: Optional[Sequence[str]] = None,
    socket_compression: str = "none",
    socket_wire_dtype: str = "float64",
    resilience: Optional[object] = None,
    network_fault_plan: Optional[object] = None,
    rng_seed: int = 0,
    population: Optional[object] = None,
) -> ExecutionBackend:
    """Construct the backend ``name`` ("serial", "process", or "socket").

    ``task_timeout_s`` and ``task_retries`` are shared failure-handling
    policy for both worker backends (they come straight from
    ``ExperimentConfig``), and ``rng_seed`` seeds their backoff jitter's
    dedicated RNG stream (never the model/search streams).  The
    ``socket_*`` arguments, ``resilience`` (a
    :class:`repro.transport.ResilienceConfig`) and ``network_fault_plan``
    (a :class:`repro.faults.NetworkFaultPlan`) only apply to the socket
    backend (``socket_workers=None`` auto-spawns local daemons), so
    ``process`` stays lossless and chaos-free.

    ``population`` (a ``repro.population.PopulationContext``) switches
    the backends to population mode: ``participants`` may be empty, and
    workers derive any participant's spec on demand from the shared
    context instead of holding O(population) spec lists.
    """
    if name == "serial":
        return SerialBackend(
            participants, supernet_config, telemetry=telemetry, population=population
        )
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    # Imported lazily: the transport package imports this module for the
    # task/result types.
    from repro.transport.backend import ProcessPoolBackend, SocketBackend

    common = dict(
        num_workers=num_workers,
        task_timeout_s=task_timeout_s,
        max_retries=task_retries,
        telemetry=telemetry,
        rng_seed=rng_seed,
        population=population,
    )
    if name == "process":
        return ProcessPoolBackend(participants, supernet_config, **common)
    return SocketBackend(
        participants,
        supernet_config,
        workers=socket_workers,
        compression=socket_compression,
        wire_dtype=socket_wire_dtype,
        resilience=resilience,
        network_fault_plan=network_fault_plan,
        **common,
    )


def __getattr__(name: str):
    # ProcessPoolBackend is defined in repro.transport.backend; resolving
    # it on first use keeps ``import repro.federated`` from importing the
    # transport package.
    if name == "ProcessPoolBackend":
        from repro.transport.backend import ProcessPoolBackend

        return ProcessPoolBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
