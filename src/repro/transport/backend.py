"""``SocketBackend`` — the server side of the networked runtime.

Implements the :class:`repro.federated.executor.ExecutionBackend`
protocol over TCP worker daemons (:mod:`repro.transport.worker`).  Two
ways to get workers:

* **external** — pass ``workers=["host:port", ...]`` for daemons you
  started yourself (``python -m repro serve``); the backend dials,
  registers (hello + init), and leaves the daemons running on close;
* **auto-spawn** — pass no addresses and the backend forks
  ``num_workers`` local daemons from this process, which has already
  imported numpy and ``repro`` (the zero-config path behind
  ``--backend socket`` and ``--backend process``), shutting them down
  on close and **respawning** dead ones at round start.

:class:`ProcessPoolBackend` (``backend="process"``) is this auto-spawn
path under its own name; ``build_backend`` gives it no wire options, so
it stays lossless and chaos-free.

Dispatch is one pull loop per round.  Each live worker gets a thread,
and every thread runs the same loop over the round's one queue of
per-task records: claim a queued task, attempt it under
``task_timeout_s``, settle the outcome.  The failure contract (docs/API.md
"Failure semantics", the same for both names) falls out of the settle
step:

* a timed-out or erroring task with retries left re-enters the queue at
  once, and the worker it failed on skips it while another live replica
  exists;
* a task out of retries returns ``TaskResult(update=None)`` — the server
  records the participant offline and soft-sync absorbs the gap;
* a worker whose connection failed is dead for the rest of the round and
  re-dialled at the next round's start; a remote error keeps it;
* every outcome feeds the worker's :class:`CircuitBreaker`, which gates
  dispatch, redial and respawn; its state and the worker's outcome
  counts reach ``repro trace`` in the per-round ``transport.health``
  event.

Network chaos: pass a :class:`repro.faults.network.NetworkFaultPlan`
and every connection is wrapped in a :class:`ChaosConnection` that
injects seeded latency/drops/partitions/corruption at the frame layer
(``fault.network`` telemetry).  Its latency sleeps inside a connection's
send/recv, which is why dispatch keeps one thread per worker.

Determinism: workers compute :func:`run_local_step` on bit-exact
float64 payloads (default wire precision), every source of randomness
travels inside the task, and results are returned in task order — so a
seeded run is bit-identical to the serial backend no matter how tasks
interleave on the wire.  ``wire_dtype="float16"/"float32"`` trades that
exactness for bandwidth.

Wire telemetry: ``transport.bytes_sent`` / ``transport.bytes_received``
counters (all frames, headers included), ``transport.task_rtt_s`` and
per-participant ``transport.task_rtt_s.p<k>`` histograms,
``transport.payload_bytes`` (measured task payload sizes), heartbeat
RTTs, worker lifecycle events, and one ``transport.round`` event per
``run_tasks`` call — all through the regular telemetry registry, so
``repro trace`` can report measured wire traffic.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.faults.network import ChaosEngine, NetworkFaultPlan
from repro.federated.executor import ParticipantSpec, TaskResult
from repro.federated.participant import LocalStepTask, ParticipantUpdate
from repro.federated.versioning import DeltaLedger
from repro.nn.serialize import WIRE_DTYPES
from repro.search_space import SupernetConfig
from repro.telemetry import Telemetry
from repro.telemetry.tracing import emit_task_trace

from . import codec
from .protocol import (
    MSG_ACK,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HEARTBEAT_ACK,
    MSG_HELLO,
    MSG_HELLO_ACK,
    MSG_INIT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_UPDATE,
    FrameConnection,
    ProtocolError,
)
from .resilience import BREAKER_OPEN, CircuitBreaker
from .worker import LocalWorker, spawn_local_worker

__all__ = [
    "WorkerEndpoint",
    "SocketBackend",
    "ProcessPoolBackend",
    "parse_address",
]

def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a helpful error."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {address!r} must look like 'host:port'"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ValueError(
            f"worker address {address!r} has a non-numeric port"
        ) from exc


class WorkerEndpoint:
    """One worker the backend knows about: address, connection, breaker."""

    def __init__(
        self,
        host: str,
        port: int,
        proc: Optional[LocalWorker] = None,
        on_breaker: Optional[Callable[["WorkerEndpoint", str, str], None]] = None,
    ):
        self.host = host
        self.port = port
        #: the daemon process when this backend spawned it (owned:
        #: shut down on close, respawned when found dead)
        self.proc = proc
        self.conn: Optional[FrameConnection] = None
        self.registered = False
        #: wire bytes (sent, received) of this endpoint's closed
        #: connections, so its totals survive a reconnect
        self.retired_traffic = (0, 0)
        #: outcome counts, for the ``transport.health`` event
        self.tasks_ok = self.tasks_failed = self.heartbeat_failures = 0
        #: ``on_breaker(endpoint, old, new)`` hears every transition
        self.breaker = CircuitBreaker(
            None if on_breaker is None else lambda old, new: on_breaker(self, old, new)
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.conn is not None and self.registered

    def traffic(self) -> Tuple[int, int]:
        """Cumulative wire bytes (sent, received) over every connection
        this endpoint has had — never decreases."""
        sent, received = self.retired_traffic
        if self.conn is not None:
            sent, received = sent + self.conn.bytes_sent, received + self.conn.bytes_received
        return sent, received

    def retire(self, conn) -> None:
        """Close ``conn``, keeping its byte counts in the totals."""
        sent, received = self.retired_traffic
        self.retired_traffic = (sent + conn.bytes_sent, received + conn.bytes_received)
        conn.close()

    def drop(self) -> None:
        if self.conn is not None:
            self.retire(self.conn)
            self.conn = None
        self.registered = False


def _request(
    conn, msg_type: int, payload: bytes, reply_type: int, timeout: float
) -> None:
    """One request/reply exchange; a reply of another type is a ProtocolError."""
    got, _ = conn.request(msg_type, payload, timeout=timeout)
    if got != reply_type:
        raise ProtocolError(f"expected message type {reply_type:#x}, got {got:#x}")


class _RemoteError(Exception):
    """The worker ran the task and reported an error; the connection is fine."""


@dataclasses.dataclass(eq=False)
class _Job:
    """One task's dispatch record for the round."""

    task: LocalStepTask
    update: Optional[ParticipantUpdate] = None
    #: sends claimed
    attempts: int = 0
    error: str = "no live workers"
    #: the worker it last failed on, which a retry avoids
    failed_on: Optional[WorkerEndpoint] = None


@dataclasses.dataclass
class _Round:
    """One ``run_tasks`` call: its records, its queue of tasks waiting
    for a worker, how many are in flight, and the workers whose threads
    still pull from it."""

    jobs: List[_Job]
    queue: deque
    serving: Set[WorkerEndpoint]
    in_flight: int = 0


class SocketBackend:
    """Distributed participant execution over TCP worker daemons."""

    name = "socket"

    def __init__(
        self,
        participants: Sequence[object],
        supernet_config: SupernetConfig,
        workers: Optional[Sequence[str]] = None,
        num_workers: Optional[int] = None,
        task_timeout_s: float = 60.0,
        max_retries: int = 1,
        connect_timeout_s: float = 10.0,
        compression: str = "none",
        wire_dtype: str = "float64",
        telemetry: Optional[Telemetry] = None,
        spawn_idle_timeout_s: float = 300.0,
        network_fault_plan: Optional[NetworkFaultPlan] = None,
        population: Optional[object] = None,
    ):
        if task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive, got {task_timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        for name, value, allowed in (
            ("compression", compression, codec.COMPRESSIONS),
            ("wire_dtype", wire_dtype, sorted(WIRE_DTYPES)),
        ):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        self._specs = [
            spec
            if isinstance(spec, ParticipantSpec)
            else ParticipantSpec.from_participant(spec)  # type: ignore[arg-type]
            for spec in participants
        ]
        #: population-mode context (a ``PopulationContext``): workers
        #: derive any participant's spec on demand from it, so the init
        #: payload stays O(dataset + recipe) instead of O(population)
        self._population = population
        if not self._specs and population is None:
            raise ValueError("at least one participant required")
        self._supernet_config = supernet_config
        self.task_timeout_s = float(task_timeout_s)
        self.max_retries = int(max_retries)
        self.connect_timeout_s = float(connect_timeout_s)
        self.compression = compression
        self.wire_dtype = wire_dtype
        self.telemetry = telemetry or Telemetry.disabled()
        self._spawn_idle_timeout_s = float(spawn_idle_timeout_s)
        #: endpoint → acknowledged parameter versions, voided on every
        #: (re-)registration since MSG_INIT clears the daemon's cache
        self.ledger = DeltaLedger(self.name)
        self._chaos: Optional[ChaosEngine] = None
        if network_fault_plan is not None and network_fault_plan.faults:
            self._chaos = ChaosEngine(network_fault_plan, telemetry, side="server")
        self._seq = 0
        self._round_counter = 0
        #: guards telemetry from the dispatch threads; re-entrant because
        #: a breaker transition fires its callback while ``_cond`` is held
        self._lock = threading.RLock()
        #: the round's records and queue are read and settled under this
        self._cond = threading.Condition(self._lock)

        if workers:
            self._auto_spawn = False
            self.num_workers = len(workers)
            self._endpoints = [
                WorkerEndpoint(*parse_address(address), on_breaker=self._on_breaker)
                for address in workers
            ]
        else:
            self._auto_spawn = True
            # population mode has no upfront specs to count
            default = min(len(self._specs) or 4, os.cpu_count() or 2, 4)
            self.num_workers = int(num_workers or default)
            if self.num_workers < 1:
                raise ValueError(
                    f"num_workers must be >= 1, got {self.num_workers}"
                )
            #: spawned lazily on first run_tasks
            self._endpoints = []

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _on_breaker(self, endpoint: WorkerEndpoint, old: str, new: str) -> None:
        if not self.telemetry.enabled:
            return
        with self._lock:
            self.telemetry.count("transport.breaker_transitions")
            self.telemetry.emit(
                "transport.breaker",
                worker=endpoint.address,
                from_state=old,
                to_state=new,
                cooldown_s=endpoint.breaker.cooldown_s,
            )

    def _on_traffic(self, sent: int, received: int) -> None:
        if not self.telemetry.enabled:
            return
        with self._lock:
            if sent:
                self.telemetry.count("transport.bytes_sent", sent)
            if received:
                self.telemetry.count("transport.bytes_received", received)

    def _register(self, endpoint: WorkerEndpoint) -> bool:
        """Dial + hello + init one endpoint; returns success."""
        conn = None
        try:
            if self._chaos is not None and self._chaos.refuse_connect(endpoint.address):
                raise OSError("chaos: connection refused")
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=self.connect_timeout_s
            )
            conn = FrameConnection(sock, on_traffic=self._on_traffic)
            if self._chaos is not None:
                conn = self._chaos.wrap(
                    conn, endpoint.address, self._endpoints.index(endpoint)
                )
            hello = codec.encode_hello(
                compression=self.compression, wire_dtype=self.wire_dtype
            )
            _request(conn, MSG_HELLO, hello, MSG_HELLO_ACK, self.connect_timeout_s)
            init = codec.encode_init(self._specs, self._supernet_config, self._population)
            timeout = max(self.connect_timeout_s, self.task_timeout_s)
            _request(conn, MSG_INIT, init, MSG_ACK, timeout)
        except (ProtocolError, OSError) as exc:
            if conn is not None:
                endpoint.retire(conn)
            endpoint.breaker.record_failure()
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "transport.register_failed",
                    worker=endpoint.address,
                    error=str(exc),
                )
            return False
        endpoint.conn = conn
        endpoint.registered = True
        endpoint.breaker.record_success()
        # Registration sent MSG_INIT, which cleared the daemon's delta
        # cache: every previously acknowledged version is void.
        self.ledger.forget(endpoint)
        if self.telemetry.enabled:
            self.telemetry.count("transport.worker_registered")
            self.telemetry.emit(
                "transport.worker_registered", worker=endpoint.address
            )
        return True

    def _mark_lost(self, endpoint: WorkerEndpoint, reason: str) -> None:
        was_alive = endpoint.alive
        endpoint.drop()
        if was_alive and self.telemetry.enabled:
            self.telemetry.count("transport.worker_lost")
            self.telemetry.emit(
                "transport.worker_lost", worker=endpoint.address, reason=reason
            )

    def _ensure_workers(self) -> List[WorkerEndpoint]:
        """Redial, respawn, and heartbeat; returns live endpoints.

        Called at the start of every ``run_tasks`` — this is where a
        worker that dropped in an earlier round re-enters the pool.
        A worker whose circuit breaker is open sits out: no respawn, no
        redial, until the cooldown admits a half-open probe (the probe
        *is* the registration attempt).
        """
        if self._auto_spawn and not self._endpoints:
            # Start every daemon before waiting on any.
            procs = [self._spawn() for _ in range(self.num_workers)]
            try:
                self._endpoints = [
                    WorkerEndpoint(*proc.address(), proc, self._on_breaker)
                    for proc in procs
                ]
            except RuntimeError:
                for proc in procs:
                    proc.kill()
                    proc.wait()
                raise
        skipped, respawns = set(), []
        for endpoint in self._endpoints:
            needs_respawn = (
                self._auto_spawn
                and endpoint.proc is not None
                and endpoint.proc.poll() is not None
            )
            if (needs_respawn or not endpoint.alive) and not endpoint.breaker.try_acquire():
                # Breaker open: this worker keeps failing — don't burn a
                # respawn/redial on it until the cooldown expires.
                if self.telemetry.enabled:
                    self.telemetry.count("transport.respawn_gated")
                skipped.add(endpoint)
            elif needs_respawn:
                endpoint.drop()
                respawns.append((endpoint, self._spawn()))
        # An owned daemon that died (e.g. kill -9) gets a fresh process
        # on its slot; the replacements were all started above.
        for endpoint, proc in respawns:
            try:
                endpoint.host, endpoint.port = proc.address()
            except RuntimeError:
                endpoint.breaker.record_failure()
                skipped.add(endpoint)
                continue
            endpoint.proc = proc
            if self.telemetry.enabled:
                self.telemetry.count("transport.worker_respawned")
                self.telemetry.emit(
                    "transport.worker_respawned", worker=endpoint.address
                )
        for endpoint in self._endpoints:
            if endpoint in skipped:
                continue
            # A stale connection (worker restarted, half-open TCP) fails
            # its heartbeat and gets one immediate re-registration.
            if not endpoint.alive or not self._heartbeat(endpoint):
                self._register(endpoint)
        return [e for e in self._endpoints if e.alive]

    def _spawn(self) -> LocalWorker:
        # Forking is safe here: _ensure_workers runs before a round's
        # dispatch threads start and after the last round's were joined,
        # so no other thread of this backend holds a lock.
        return spawn_local_worker(idle_timeout_s=self._spawn_idle_timeout_s)

    def _heartbeat(self, endpoint: WorkerEndpoint) -> bool:
        start = time.perf_counter()
        try:
            timeout = self.connect_timeout_s
            _request(endpoint.conn, MSG_HEARTBEAT, b"", MSG_HEARTBEAT_ACK, timeout)
        except (ProtocolError, OSError, socket.timeout) as exc:
            endpoint.heartbeat_failures += 1
            endpoint.breaker.record_failure()
            if self.telemetry.enabled:
                self.telemetry.count("transport.heartbeat_failures")
                self.telemetry.emit(
                    "transport.heartbeat_failed",
                    worker=endpoint.address,
                    error=str(exc),
                )
            self._mark_lost(endpoint, f"heartbeat failed: {exc}")
            return False
        endpoint.breaker.record_success()
        if self.telemetry.enabled:
            rtt = time.perf_counter() - start
            self.telemetry.observe("transport.heartbeat_rtt_s", rtt)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[LocalStepTask]) -> List[TaskResult]:
        """Run one round's tasks, one :meth:`_drive` thread per live
        worker over one queue; results come back in task order."""
        telemetry = self.telemetry
        round_index = tasks[0].round_index if tasks else self._round_counter
        self._round_counter += 1
        live = self._ensure_workers()
        self.ledger.begin_round()
        if telemetry.enabled:
            for task in tasks:
                telemetry.emit(
                    "executor.dispatch",
                    backend=self.name,
                    round=task.round_index,
                    participant=task.participant_id,
                )
            telemetry.gauge("executor.inflight", len(tasks))
            telemetry.gauge("transport.workers_live", len(live))

        bytes_before = self._traffic_snapshot()
        jobs = [_Job(task) for task in tasks]
        state = _Round(jobs, deque(jobs), set(live))
        threads = [
            threading.Thread(target=self._drive, args=(state, endpoint), daemon=True)
            for endpoint in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        final = []
        for job in jobs:
            task, update, attempts = job.task, job.update, max(job.attempts, 1)
            if update is None and telemetry.enabled:
                telemetry.count("executor.worker_crashes")
                telemetry.emit(
                    "executor.worker_crash",
                    backend=self.name,
                    round=task.round_index,
                    participant=task.participant_id,
                    attempts=attempts,
                    error=job.error,
                )
            final.append(
                TaskResult(
                    task.participant_id,
                    update,
                    attempts=attempts,
                    error=None if update is not None else job.error,
                    compute_s=update.compute_time_s if update is not None else 0.0,
                )
            )
        if telemetry.enabled:
            self._emit_round(round_index, jobs, bytes_before)
        return final

    def _drive(self, state: _Round, endpoint: WorkerEndpoint) -> None:
        """One worker's loop: claim a queued task, attempt it, settle it."""
        try:
            while True:
                with self._cond:
                    job = self._wait_for_job(state, endpoint)
                if job is None:
                    return
                try:
                    update, reason = self._attempt(endpoint, job.task)
                except Exception as exc:
                    # Whatever an attempt raises settles as its failure:
                    # a job this thread holds must not be left in flight
                    # on a thread that is gone, or the round never ends.
                    update, reason = None, f"{type(exc).__name__}: {exc}"
                with self._cond:
                    self._settle(state, endpoint, job, update, reason)
                    self._cond.notify_all()
        finally:
            with self._cond:
                state.serving.discard(endpoint)
                self._cond.notify_all()

    def _wait_for_job(self, state: _Round, endpoint: WorkerEndpoint):
        """The next job this worker attempts, or None once it is done for
        the round (condition held).  A worker waits while the only
        queued tasks are retries it failed and another replica serves,
        or while tasks in flight elsewhere may still come back."""
        while state.queue or state.in_flight:
            if not endpoint.alive or endpoint.breaker.state == BREAKER_OPEN:
                return None
            others = any(e is not endpoint for e in state.serving)
            job = next(
                (j for j in state.queue if j.failed_on is not endpoint or not others),
                None,
            )
            if job is not None:
                if not endpoint.breaker.try_acquire():
                    return None
                state.queue.remove(job)
                state.in_flight += 1
                job.attempts += 1
                return job
            self._cond.wait()
        return None

    def _settle(
        self, state: _Round, endpoint: WorkerEndpoint, job: _Job,
        update: Optional[ParticipantUpdate], reason: str,
    ) -> None:
        """Record one attempt's outcome; a failure with retries left
        re-enters the queue (condition held)."""
        state.in_flight -= 1
        if update is not None:
            job.update = update
            return
        job.error, job.failed_on = reason, endpoint
        if job.attempts > self.max_retries:
            return
        state.queue.append(job)
        if self.telemetry.enabled:
            task = job.task
            self.telemetry.count("executor.task_retries")
            self.telemetry.emit(
                "executor.task_retry",
                backend=self.name,
                round=task.round_index,
                participant=task.participant_id,
                attempt=job.attempts + 1,
                error=reason,
            )

    def _attempt(self, endpoint: WorkerEndpoint, task: LocalStepTask):
        """One attempt of one task on one worker: ``(update, "")`` or
        ``(None, reason)``.  Every outcome feeds the worker's counts and
        breaker; every failure but a remote error drops the connection."""
        lost, timeout_s = None, self.task_timeout_s
        try:
            update, size, dispatch_ts, rtt = self._exchange(endpoint, task, timeout_s)
        except _RemoteError as exc:
            reason = f"remote error: {exc}"
        except socket.timeout:
            reason = f"task timed out after {timeout_s:g}s"
            lost = f"task deadline ({timeout_s:g}s) exceeded"
        except (ProtocolError, OSError) as exc:
            reason, lost = f"{type(exc).__name__}: {exc}", str(exc)
        else:
            endpoint.tasks_ok += 1
            endpoint.breaker.record_success()
            receive_ts = self.telemetry.now()
            if task.state_versions is not None:
                self.ledger.record(endpoint, task.state_versions)
            if self.telemetry.enabled:
                with self._lock:
                    emit_task_trace(
                        self.telemetry,
                        backend=self.name,
                        task=task,
                        update=update,
                        dispatch_ts=dispatch_ts,
                        receive_ts=receive_ts,
                        worker=endpoint.address,
                    )
                    self.telemetry.observe("transport.task_rtt_s", rtt)
                    self.telemetry.observe(
                        f"transport.task_rtt_s.p{task.participant_id}", rtt
                    )
                    self.telemetry.observe("transport.payload_bytes", size)
            return update, ""
        endpoint.tasks_failed += 1
        endpoint.breaker.record_failure()
        if lost is not None:
            self._mark_lost(endpoint, lost)
        return None, reason

    def _exchange(
        self, endpoint: WorkerEndpoint, task: LocalStepTask, timeout_s: float
    ):
        """Send ``task``, read its update: ``(update, payload bytes,
        dispatch_ts, rtt)``.

        Deltas are computed per endpoint at send time, so the second
        task a worker receives in a round already references what the
        first one shipped (versions cannot change mid-round).  A delta
        cache miss is not a failure: the task is re-sent in full once on
        the same connection, outside the retry count.
        """
        wire_task = self.ledger.delta_task(task, self.ledger.acked(endpoint))
        while True:
            self._seq += 1
            seq = self._seq
            payload = codec.encode_task(
                wire_task,
                seq,
                compression=self.compression,
                wire_dtype=self.wire_dtype,
            )
            start = time.perf_counter()
            dispatch_ts = self.telemetry.now()
            msg_type, reply = endpoint.conn.request(
                MSG_TASK, payload, timeout=timeout_s
            )
            if msg_type != MSG_ERROR:
                break
            info = codec.decode_error_info(reply)
            if info.get("code") != "cache_miss" or wire_task is task:
                raise _RemoteError(info["error"])
            # The daemon restarted (or was swapped) since we last
            # acknowledged: forget its cache and ship the full state.
            self.ledger.forget(endpoint, cache_miss=True)
            if self.telemetry.enabled:
                with self._lock:
                    self.telemetry.emit(
                        "transport.delta_resync",
                        worker=endpoint.address,
                        round=task.round_index,
                        participant=task.participant_id,
                        missing=info.get("missing", 0),
                    )
            wire_task = task
        if msg_type != MSG_UPDATE:
            raise ProtocolError(f"expected update, got message type {msg_type:#x}")
        update, reply_seq = codec.decode_update(reply)
        if reply_seq != seq:
            raise ProtocolError(
                f"reply seq {reply_seq} does not match request seq {seq}"
            )
        return update, len(payload), dispatch_ts, time.perf_counter() - start

    def _emit_round(self, round_index: int, jobs: List[_Job], bytes_before) -> None:
        """The round's ``transport.round`` and ``transport.health`` events."""
        telemetry = self.telemetry
        sent, received = self._traffic_snapshot()
        telemetry.gauge("executor.inflight", 0)
        telemetry.emit(
            "transport.round",
            round=round_index,
            workers_live=len([e for e in self._endpoints if e.alive]),
            tasks=len(jobs),
            failed=sum(job.update is None for job in jobs),
            bytes_sent=sent - bytes_before[0],
            bytes_received=received - bytes_before[1],
        )
        self.ledger.end_round(telemetry, round_index, len(jobs))
        telemetry.emit(
            "transport.health",
            round=round_index,
            workers=[
                {
                    "worker": e.address,
                    "state": e.breaker.state,
                    "alive": e.alive,
                    "ok": e.tasks_ok,
                    "failed": e.tasks_failed,
                    "heartbeat_failures": e.heartbeat_failures,
                }
                for e in self._endpoints
            ],
        )

    def _traffic_snapshot(self) -> Tuple[int, int]:
        """Wire bytes (sent, received) so far over every endpoint,
        replaced connections included, so per-round deltas are >= 0."""
        totals = [endpoint.traffic() for endpoint in self._endpoints]
        return sum(t[0] for t in totals), sum(t[1] for t in totals)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop all connections; shut down and reap owned daemons.

        Idempotent; like the other backends, a closed SocketBackend
        re-acquires workers lazily if tasks arrive again.
        """
        for endpoint in self._endpoints:
            # Only daemons this backend spawned get a shutdown frame;
            # external workers stay up for their next server.
            if endpoint.conn is not None and endpoint.proc is not None:
                try:
                    endpoint.conn.send_frame(MSG_SHUTDOWN, b"", timeout=2.0)
                    endpoint.conn.recv_frame(timeout=2.0)
                except (ProtocolError, OSError, socket.timeout):
                    pass
            endpoint.drop()
            if endpoint.proc is not None:
                try:
                    endpoint.proc.terminate()
                    endpoint.proc.wait(timeout=5.0)
                except (OSError, TimeoutError):
                    endpoint.proc.kill()
                    endpoint.proc.wait()
        if self._auto_spawn:
            self._endpoints = []
        self.ledger.clear()


class ProcessPoolBackend(SocketBackend):
    """``backend="process"``: local worker processes, forked from this
    one and reached over loopback — :class:`SocketBackend`'s auto-spawn
    path under the name reports and telemetry show."""

    name = "process"
