"""Pluggable execution engines for participant local steps.

The server round loop produces a list of :class:`~repro.federated.participant.LocalStepTask`
messages and hands them to an :class:`ExecutionBackend`; the backend
returns one :class:`TaskResult` per task, **in task order**, each
carrying either the participant's :class:`~repro.federated.participant.ParticipantUpdate`
or a failure record.  Three backends ship:

* :class:`SerialBackend` — runs every task in-process, in order.  This
  is the default and matches the historical single-process behaviour.
* :class:`ProcessPoolBackend` — a ``multiprocessing`` pool whose workers
  are initialised **once** with the (immutable) shard data and supernet
  geometry; per round only the tasks travel.  Tasks get a per-task
  timeout and one retry; a worker crash or repeated timeout degrades the
  participant to *offline for that round* (feeding the existing
  soft-synchronisation path) instead of killing the search.
* :class:`repro.transport.SocketBackend` — the networked runtime: worker
  daemons (``python -m repro serve``) over TCP with the same failure
  semantics, built via ``build_backend("socket", ...)``.

Determinism contract: every source of randomness a local step consumes is
inside the task (``batch_seed``, ``mask``, ``state``), so seeded runs are
bit-identical across backends regardless of worker scheduling.  The
equivalence is enforced by ``tests/test_executor.py``.

Telemetry: backends emit ``executor.dispatch`` / ``executor.task_retry``
/ ``executor.worker_crash`` events, per-task queue/compute timing
histograms (``executor.task_queue_s`` / ``executor.task_compute_s``),
and an ``executor.inflight`` gauge.  Worker processes run without
telemetry (spans cannot cross process boundaries); all events are
emitted from the coordinating process.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from repro.nn import tape
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
from .versioning import DeltaCacheMiss, DeltaLedger, resolve_task

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

    ``fault_hook`` mirrors :class:`ProcessPoolBackend`'s injection point
    (called with each task before execution) so chaos/latency experiments
    can compare backends apples-to-apples; unlike the process backend a
    hook failure here propagates, since there is no worker boundary to
    absorb it.
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

        Tasks stack when their mask and batch size match and their
        ``state`` arrays are the same objects (within a round, same-mask
        tasks share the supernet's live views), in balanced chunks of at
        most :data:`~repro.federated.compiled._MAX_GROUP`.  A task that
        carries a trace context, or meets a fault hook, runs alone.
        """
        buckets: Dict[object, List[int]] = {}
        for index, task in enumerate(tasks):
            key: object = index
            if self._fault_hook is None and task.trace is None:
                participant = self._participants[task.participant_id]
                key = (
                    task.mask,
                    min(participant.loader.batch_size, len(participant.dataset)),
                    tuple(map(id, task.state.values())),
                )
            buckets.setdefault(key, []).append(index)
        return [
            chunk for group in buckets.values() for chunk in compiled.group_chunks(group)
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
# Process-pool backend
# ----------------------------------------------------------------------

def default_start_method() -> str:
    """``fork`` where available (cheap: the child inherits the parent's
    loaded modules), else ``spawn`` — for every local worker process."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


#: Per-worker state installed by :func:`_init_worker` (one copy per
#: worker process; immutable after initialisation).
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    specs: Sequence[ParticipantSpec],
    supernet_config: SupernetConfig,
    fault_hook: Optional[Callable[[LocalStepTask], None]],
    population: Optional[object] = None,
    compute_dtype: str = "float64",
) -> None:
    # As data: a spawned worker does not inherit module globals.
    tape.configure(compute_dtype)
    _WORKER_STATE["specs"] = {spec.participant_id: spec for spec in specs}
    _WORKER_STATE["supernet_config"] = supernet_config
    _WORKER_STATE["fault_hook"] = fault_hook
    # Population mode: workers receive the shared derivation context
    # (base dataset + partition recipe) once, instead of O(population)
    # spec lists — any participant's spec is derived on first use.
    _WORKER_STATE["population"] = population
    # (name -> (version, array)) delta-dispatch cache; starts cold in
    # every fresh worker process, so stale entries cannot survive a
    # pool teardown or worker replacement.
    _WORKER_STATE["param_cache"] = {}


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
    fault_hook: Optional[Callable[[LocalStepTask], None]] = None,
):
    """The worker-side task body of both distributed runtimes.

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
        if fault_hook is not None:
            fault_hook(task)
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


#: first element of a worker reply that could not resolve its delta refs
_CACHE_MISS = "__delta_cache_miss__"


def _run_task(task: LocalStepTask):
    """Process-pool worker entry point.

    Returns ``(update, compute_wall, pid)`` on success, or
    ``(_CACHE_MISS, missing_names, pid)`` when the task referenced cached
    parameters this worker does not hold — the coordinator then re-sends
    the task in full (a full task can never miss).
    """
    pid = os.getpid()
    try:
        # _init_worker installed exactly run_worker_task's keyword arguments.
        update, wall = run_worker_task(task, **_WORKER_STATE)  # type: ignore[arg-type]
    except DeltaCacheMiss as miss:
        return _CACHE_MISS, miss.missing, pid
    return update, wall, pid


class ProcessPoolBackend:
    """Parallel local steps on a ``multiprocessing`` worker pool.

    Parameters
    ----------
    participants:
        Live participants or pre-built :class:`ParticipantSpec` objects;
        live ones are converted (only their immutable slice travels).
    supernet_config:
        Geometry workers use to rebuild sub-models from task masks.
    num_workers:
        Pool size; ``None``/``0`` picks ``min(#participants, cpu_count)``.
    task_timeout_s:
        Per-attempt deadline (covers queueing + compute, so size it above
        a full round's backlog per worker).
    max_retries:
        Re-dispatches after a timeout or worker exception (default 1).
    fault_hook:
        Optional callable run inside the worker before each task —
        injection point for crash/latency chaos testing.  Must be
        picklable under the chosen start method.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, inherits the parent's loaded modules) else
        ``spawn``.

    Dispatch is delta-encoded: workers keep a persistent
    ``(name, version)`` parameter cache (see
    :mod:`repro.federated.versioning`) and only parameters some worker
    has not acknowledged at their current version travel.  Because a
    pool cannot target a specific worker, a parameter is referenced
    instead of shipped only once **every** known worker pid has
    acknowledged its exact current version.  A cache miss (e.g. a
    replaced worker) triggers a full re-send that does not consume the
    retry budget.

    The pool is created lazily on first use and torn down by
    :meth:`close`; a closed backend transparently re-creates its pool if
    tasks arrive again.  Dead workers are replaced automatically by
    ``multiprocessing.Pool``, so a crashed worker costs one task timeout,
    not the search.
    """

    name = "process"

    def __init__(
        self,
        participants: Sequence[object],
        supernet_config: SupernetConfig,
        num_workers: Optional[int] = None,
        task_timeout_s: float = 60.0,
        max_retries: int = 1,
        telemetry: Optional[Telemetry] = None,
        fault_hook: Optional[Callable[[LocalStepTask], None]] = None,
        start_method: Optional[str] = None,
        population: Optional[object] = None,
    ):
        if task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive, got {task_timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._specs = [
            spec
            if isinstance(spec, ParticipantSpec)
            else ParticipantSpec.from_participant(spec)  # type: ignore[arg-type]
            for spec in participants
        ]
        self._population = population
        if not self._specs and population is None:
            raise ValueError("at least one participant required")
        self._supernet_config = supernet_config
        if num_workers:
            self.num_workers = int(num_workers)
        elif self._specs:
            self.num_workers = min(len(self._specs), os.cpu_count() or 2)
        else:
            # Population mode: the working set is the cohort, not the
            # spec list (which is empty) — default to the machine.
            self.num_workers = os.cpu_count() or 2
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        self.task_timeout_s = float(task_timeout_s)
        self.max_retries = int(max_retries)
        self.telemetry = telemetry or Telemetry.disabled()
        self._fault_hook = fault_hook
        self._ctx = mp.get_context(start_method or default_start_method())
        self._pool: Optional[mp.pool.Pool] = None
        #: worker pid → acknowledged parameter versions; pids silent
        #: for 3 rounds (replaced pool workers) are forgotten
        self.ledger = DeltaLedger(self.name, prune_after=3)

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> "mp.pool.Pool":
        if self._pool is None:
            self._pool = self._ctx.Pool(
                processes=self.num_workers,
                initializer=_init_worker,
                initargs=(
                    self._specs,
                    self._supernet_config,
                    self._fault_hook,
                    self._population,
                    tape.settings(),
                ),
            )
        return self._pool

    def run_tasks(self, tasks: Sequence[LocalStepTask]) -> List[TaskResult]:
        pool = self._ensure_pool()
        telemetry = self.telemetry
        ledger = self.ledger
        ledger.begin_round()
        # The pool cannot target a worker, so a parameter may only be
        # referenced when every pid acknowledged its exact current
        # version.  Acks only change during collection, after every
        # submission, so the intersection is taken once per call.
        shared = ledger.acked_by_all(self.num_workers)
        submissions = []
        for task in tasks:
            wire_task = ledger.delta_task(task, shared)
            if telemetry.enabled:
                telemetry.emit(
                    "executor.dispatch",
                    backend=self.name,
                    round=task.round_index,
                    participant=task.participant_id,
                )
            submissions.append(
                (
                    wire_task,
                    pool.apply_async(_run_task, (wire_task,)),
                    time.perf_counter(),
                    telemetry.now(),
                )
            )
        if telemetry.enabled:
            telemetry.gauge("executor.inflight", len(tasks))

        results: List[TaskResult] = []
        for position, task in enumerate(tasks):
            wire_task, handle, submitted_at, dispatch_ts = submissions[position]
            results.append(
                self._collect(task, wire_task, handle, submitted_at, dispatch_ts)
            )
            if telemetry.enabled:
                telemetry.gauge("executor.inflight", len(tasks) - position - 1)
        if tasks:
            ledger.end_round(telemetry, tasks[0].round_index, len(tasks))
        return results

    def _collect(
        self,
        task: LocalStepTask,
        wire_task: LocalStepTask,
        handle,
        submitted_at: float,
        dispatch_ts: float,
    ) -> TaskResult:
        telemetry = self.telemetry
        attempts = 1
        while True:
            error: str
            try:
                reply = handle.get(timeout=self.task_timeout_s)
                if reply[0] == _CACHE_MISS:
                    # The worker's cache lacked referenced parameters
                    # (fresh or replaced process).  Re-send in full —
                    # this is resynchronisation, not a failure, so it
                    # does not consume the retry budget, and a full task
                    # can never miss again.
                    _, missing, pid = reply
                    self.ledger.forget(pid, cache_miss=True)
                    if telemetry.enabled:
                        telemetry.emit(
                            "executor.delta_resync",
                            backend=self.name,
                            round=task.round_index,
                            participant=task.participant_id,
                            missing=len(missing),
                            pid=pid,
                        )
                    wire_task = task
                    handle = self._ensure_pool().apply_async(_run_task, (task,))
                    submitted_at = time.perf_counter()
                    dispatch_ts = telemetry.now()
                    continue
                update, compute_wall, pid = reply
                if wire_task.state_versions is not None:
                    self.ledger.record(pid, wire_task.state_versions)
                turnaround = time.perf_counter() - submitted_at
                queue_s = max(0.0, turnaround - compute_wall)
                emit_task_trace(
                    telemetry,
                    backend=self.name,
                    task=task,
                    update=update,
                    dispatch_ts=dispatch_ts,
                    receive_ts=telemetry.now(),
                    worker=str(pid),
                )
                if telemetry.enabled:
                    telemetry.observe("executor.task_queue_s", queue_s)
                    telemetry.observe("executor.task_compute_s", compute_wall)
                return TaskResult(
                    task.participant_id,
                    update,
                    attempts=attempts,
                    queue_s=queue_s,
                    compute_s=compute_wall,
                )
            except mp.TimeoutError:
                error = f"task timed out after {self.task_timeout_s:g}s"
            except Exception as exc:  # remote exception or dead worker
                error = f"{type(exc).__name__}: {exc}"
            if attempts > self.max_retries:
                if telemetry.enabled:
                    telemetry.count("executor.worker_crashes")
                    telemetry.emit(
                        "executor.worker_crash",
                        backend=self.name,
                        round=task.round_index,
                        participant=task.participant_id,
                        attempts=attempts,
                        error=error,
                    )
                return TaskResult(
                    task.participant_id, None, attempts=attempts, error=error
                )
            attempts += 1
            if telemetry.enabled:
                telemetry.count("executor.task_retries")
                telemetry.emit(
                    "executor.task_retry",
                    backend=self.name,
                    round=task.round_index,
                    participant=task.participant_id,
                    attempt=attempts,
                    error=error,
                )
            # Retries always re-send the original task in full: the
            # replacement worker may have a cold cache, and a delta task
            # would just bounce with a miss round-trip.
            wire_task = task
            handle = self._ensure_pool().apply_async(_run_task, (task,))
            submitted_at = time.perf_counter()
            dispatch_ts = telemetry.now()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.ledger.clear()


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
    policy for every distributed backend (they come straight from
    ``ExperimentConfig``); the ``socket_*`` arguments only apply to the
    socket backend (``socket_workers=None`` auto-spawns local daemons).

    ``resilience`` (a :class:`repro.transport.ResilienceConfig`) and
    ``network_fault_plan`` (a :class:`repro.faults.NetworkFaultPlan`)
    tune the socket backend's breakers/backoff/hedging and wire chaos;
    the in-process backends have no wire and ignore both.  ``rng_seed``
    seeds the backoff jitter's dedicated RNG stream (never the
    model/search streams).

    ``population`` (a ``repro.population.PopulationContext``) switches
    the backends to population mode: ``participants`` may be empty, and
    workers derive any participant's spec on demand from the shared
    context instead of holding O(population) spec lists.
    """
    if name == "serial":
        return SerialBackend(
            participants, supernet_config, telemetry=telemetry, population=population
        )
    if name == "process":
        return ProcessPoolBackend(
            participants,
            supernet_config,
            num_workers=num_workers,
            task_timeout_s=task_timeout_s,
            max_retries=task_retries,
            telemetry=telemetry,
            population=population,
        )
    if name == "socket":
        # Imported lazily: the transport package imports this module for
        # the task/result types.
        from repro.transport import SocketBackend

        return SocketBackend(
            participants,
            supernet_config,
            workers=socket_workers,
            num_workers=num_workers,
            task_timeout_s=task_timeout_s,
            max_retries=task_retries,
            compression=socket_compression,
            wire_dtype=socket_wire_dtype,
            telemetry=telemetry,
            resilience=resilience,
            network_fault_plan=network_fault_plan,
            rng_seed=rng_seed,
            population=population,
        )
    raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
