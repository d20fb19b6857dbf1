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

Failure semantics per round, the same for both names:

* every task has a deadline (``task_timeout_s``, covering send +
  remote compute + reply);
* a timed-out / erroring task is retried up to ``max_retries`` times,
  each retry on a *different* live replica when one exists;
* a task that exhausts its retries returns ``TaskResult(update=None)``
  — the server records the participant offline for the round and the
  soft-synchronisation path absorbs the gap;
* a worker whose connection failed is marked dead for the rest of the
  round and re-dialled (re-registered) at the next round's start, so a
  worker that comes back re-enters the pool next round.

Resilient dispatch (:mod:`repro.transport.resilience`):

* every worker carries a :class:`CircuitBreaker` — consecutive
  failures trip it open, which skips dispatch *and* gates
  redial/respawn until a cooldown passes, then one half-open probe
  decides (transitions emitted as ``transport.breaker`` events);
* retry passes are separated by exponential backoff with full jitter
  from a dedicated RNG stream (never the model/search streams);
* per-worker deadlines adapt to observed task RTTs (EWMA/p95, clamped
  to ``[deadline_floor_s, task_timeout_s]``) once enough samples exist;
* a task pending past its hedge threshold is speculatively re-sent to
  an idle live replica; the first valid result wins, the loser's reply
  is discarded (safe: ``run_local_step`` is deterministic per
  ``batch_seed``) but still updates the loser's entry in the delta ledger;
* every task has a *total* wall budget across all passes
  (``task_budget_s``, default ``(task_retries + 1) × task_timeout_s``),
  so retries can never multiply the worst-case round wall-clock beyond
  the documented bound;
* worker health (failure history + RTTs) is summarized per round in a
  ``transport.health`` event which ``repro trace`` renders as the
  "Worker health / chaos" table.

Network chaos: pass a :class:`repro.faults.network.NetworkFaultPlan`
and every connection is wrapped in a :class:`ChaosConnection` that
injects seeded latency/drops/partitions/corruption at the frame layer
(``fault.network`` telemetry) — the soak tests drive the resilience
machinery through exactly these faults.

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

import multiprocessing as mp
import os
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.network import ChaosEngine, NetworkFaultPlan
from repro.federated.executor import ParticipantSpec, TaskResult
from repro.federated.participant import LocalStepTask
from repro.federated.versioning import DeltaLedger
from repro.nn import tape
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
from .resilience import (
    BREAKER_OPEN,
    CircuitBreaker,
    ResilienceConfig,
    RetryBackoff,
    WorkerHealth,
)
from .worker import serve_child

__all__ = [
    "LocalWorker",
    "WorkerEndpoint",
    "SocketBackend",
    "ProcessPoolBackend",
    "spawn_local_worker",
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


class LocalWorker:
    """A worker daemon process started by :func:`spawn_local_worker`.

    Shaped like ``subprocess.Popen`` (``pid``, ``poll``, ``wait``,
    ``terminate``, ``kill``), plus :meth:`address`, which waits for the
    port the daemon bound.
    """

    def __init__(self, process, ready):
        self._process = process
        self._ready = ready

    @property
    def pid(self) -> int:
        return self._process.pid

    def poll(self) -> Optional[int]:
        """The exit code (reaping the process), or None while it runs."""
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise TimeoutError(f"worker pid {self.pid} still running")
        return self._process.exitcode

    def terminate(self) -> None:
        self._process.terminate()

    def kill(self) -> None:
        self._process.kill()

    def address(self, timeout_s: float = 30.0) -> Tuple[str, int]:
        """``(host, port)`` once the daemon listens; a daemon that dies
        or stays silent for ``timeout_s`` is killed (RuntimeError)."""
        try:
            if self._ready.poll(timeout_s):
                host, port = self._ready.recv()
                return host, port
        except (EOFError, OSError):
            pass  # died before reporting
        finally:
            self._ready.close()
        self.kill()
        self.wait()
        raise RuntimeError(f"spawned worker pid {self.pid} never reported its port")


def spawn_local_worker(
    host: str = "127.0.0.1", idle_timeout_s: float = 300.0
) -> LocalWorker:
    """Start a worker daemon in a child process; returns without waiting.

    The child is forked where the platform allows (else spawned), so it
    skips an interpreter start and the numpy/``repro`` imports; it binds
    an OS-assigned port, which :meth:`LocalWorker.address` returns.  The
    idle timeout is a leak guard: an orphaned worker (its server crashed
    without a shutdown frame) exits by itself.
    """
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    ready, child_end = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=serve_child,
        args=(child_end, host, idle_timeout_s),
        name="repro-worker",
        daemon=True,
    )
    process.start()
    # The child holds the only write end, so its death reads as EOF.
    child_end.close()
    return LocalWorker(process, ready)


class WorkerEndpoint:
    """One worker the backend knows about: address, connection, health."""

    def __init__(
        self,
        host: str,
        port: int,
        proc: Optional[LocalWorker] = None,
    ):
        self.host = host
        self.port = port
        #: the daemon process when this backend spawned it (owned:
        #: shut down on close, respawned when found dead)
        self.proc = proc
        self.conn: Optional[FrameConnection] = None
        self.registered = False
        self.rounds_failed = 0
        #: wire bytes (sent, received) of this endpoint's closed
        #: connections, so its totals survive a reconnect
        self.retired_traffic = (0, 0)
        #: failure history + RTT statistics (resilient dispatch)
        self.health = WorkerHealth()
        #: per-worker circuit breaker; the backend swaps in one built
        #: from its configured thresholds with a telemetry callback
        self.breaker = CircuitBreaker()

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
        resilience: Optional[ResilienceConfig] = None,
        network_fault_plan: Optional[NetworkFaultPlan] = None,
        rng_seed: int = 0,
        population: Optional[object] = None,
    ):
        if task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive, got {task_timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if compression not in codec.COMPRESSIONS:
            raise ValueError(
                f"compression must be one of {codec.COMPRESSIONS}, "
                f"got {compression!r}"
            )
        if wire_dtype not in WIRE_DTYPES:
            raise ValueError(
                f"wire_dtype must be one of {sorted(WIRE_DTYPES)}, "
                f"got {wire_dtype!r}"
            )
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
        #: server parameter arena (see bind_arena): packed blobs are
        #: gathered from its contiguous buffer instead of per-name arrays
        self._arena = None
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
        self.resilience = resilience or ResilienceConfig()
        #: total per-task wall budget across every retry pass;
        #: 0 = auto = the historical worst case, now an explicit bound
        self.task_budget_s = self.resilience.task_budget_s or (
            (int(max_retries) + 1) * float(task_timeout_s)
        )
        self._backoff = RetryBackoff(
            self.resilience.retry_backoff_base_s,
            self.resilience.retry_backoff_cap_s,
            seed=rng_seed,
        )
        self._chaos: Optional[ChaosEngine] = None
        if network_fault_plan is not None and network_fault_plan.faults:
            self._chaos = ChaosEngine(
                network_fault_plan, telemetry=telemetry, side="server"
            )
        self._seq = 0
        self._round_counter = 0
        self._lock = threading.Lock()
        #: per-round hedge stats (guarded by the pass condition variable)
        self._hedge_stats = {"dispatched": 0, "wins": 0, "duplicates": 0}

        if workers:
            self._auto_spawn = False
            self.num_workers = len(workers)
            self._endpoints = [
                self._make_endpoint(*parse_address(address)) for address in workers
            ]
        else:
            self._auto_spawn = True
            if num_workers:
                self.num_workers = int(num_workers)
            elif self._specs:
                self.num_workers = min(len(self._specs), os.cpu_count() or 2, 4)
            else:  # population mode: no upfront specs to count
                self.num_workers = min(os.cpu_count() or 2, 4)
            if self.num_workers < 1:
                raise ValueError(
                    f"num_workers must be >= 1, got {self.num_workers}"
                )
            #: spawned lazily on first run_tasks
            self._endpoints = []

    def bind_arena(self, arena) -> None:
        """Let dispatch slice task blobs straight from ``arena``.

        The server calls this once after construction with its
        :class:`~repro.nn.arena.ParameterArena`; :func:`codec.encode_task`
        then assembles byte-identical blobs from contiguous arena ranges
        instead of per-name array packing.
        """
        self._arena = arena

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _make_endpoint(
        self, host: str, port: int, proc: Optional[LocalWorker] = None
    ) -> WorkerEndpoint:
        endpoint = WorkerEndpoint(host, port, proc=proc)
        endpoint.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown_s=self.resilience.breaker_cooldown_s,
            cooldown_max_s=self.resilience.breaker_cooldown_max_s,
            on_transition=lambda old, new: self._on_breaker(endpoint, old, new),
        )
        return endpoint

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
        if self._chaos is not None and self._chaos.refuse_connect(endpoint.address):
            endpoint.breaker.record_failure()
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "transport.register_failed",
                    worker=endpoint.address,
                    error="chaos: connection refused",
                )
            return False
        try:
            sock = socket.create_connection(
                (endpoint.host, endpoint.port), timeout=self.connect_timeout_s
            )
        except OSError:
            endpoint.breaker.record_failure()
            return False
        conn = FrameConnection(sock, on_traffic=self._on_traffic)
        if self._chaos is not None:
            conn = self._chaos.wrap(
                conn, endpoint.address, self._endpoints.index(endpoint)
            )
        try:
            msg_type, _ = conn.request(
                MSG_HELLO,
                codec.encode_hello(
                    compression=self.compression, wire_dtype=self.wire_dtype
                ),
                timeout=self.connect_timeout_s,
            )
            if msg_type != MSG_HELLO_ACK:
                raise ProtocolError(
                    f"expected hello_ack, got message type {msg_type:#x}"
                )
            msg_type, payload = conn.request(
                MSG_INIT,
                codec.encode_init(
                    self._specs,
                    self._supernet_config,
                    self._population,
                    tape.settings(),
                ),
                timeout=max(self.connect_timeout_s, self.task_timeout_s),
            )
            if msg_type != MSG_ACK:
                raise ProtocolError(
                    f"expected init ack, got message type {msg_type:#x}"
                )
        except (ProtocolError, OSError) as exc:
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
        *is* the registration attempt).  Live endpoints come back
        ordered by health score, best first.
        """
        if self._auto_spawn and not self._endpoints:
            # Start every daemon before waiting on any.
            procs = [self._spawn() for _ in range(self.num_workers)]
            try:
                for proc in procs:
                    self._endpoints.append(
                        self._make_endpoint(*proc.address(), proc=proc)
                    )
            except RuntimeError:
                for proc in procs:
                    proc.kill()
                    proc.wait()
                self._endpoints = []
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
            if not endpoint.alive:
                self._register(endpoint)
            elif not self._heartbeat(endpoint):
                # Stale connection (worker restarted, half-open TCP):
                # drop and immediately try one re-registration.
                self._register(endpoint)
        live = [e for e in self._endpoints if e.alive]
        live.sort(key=lambda e: -e.health.score())
        return live

    def _spawn(self) -> LocalWorker:
        # Forking is safe here: _ensure_workers runs before a round's
        # dispatch threads start and after the last round's were joined,
        # so no other thread of this backend holds a lock.
        return spawn_local_worker(idle_timeout_s=self._spawn_idle_timeout_s)

    def _heartbeat(self, endpoint: WorkerEndpoint) -> bool:
        start = time.perf_counter()
        try:
            msg_type, _payload = endpoint.conn.request(
                MSG_HEARTBEAT, b"", timeout=self.connect_timeout_s
            )
            if msg_type != MSG_HEARTBEAT_ACK:
                raise ProtocolError(
                    f"expected heartbeat_ack, got message type {msg_type:#x}"
                )
        except (ProtocolError, OSError, socket.timeout) as exc:
            endpoint.health.record_heartbeat(ok=False)
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
        rtt = time.perf_counter() - start
        endpoint.health.record_heartbeat(ok=True, rtt_s=rtt)
        endpoint.breaker.record_success()
        if self.telemetry.enabled:
            self.telemetry.observe("transport.heartbeat_rtt_s", rtt)
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _execute_on(
        self,
        endpoint: WorkerEndpoint,
        task: LocalStepTask,
        timeout_s: Optional[float] = None,
    ) -> Tuple[Optional[TaskResult], str]:
        """One attempt of one task on one worker.

        Returns ``(result, "")`` on success or ``(None, reason)`` on
        failure; connection-level failures also mark the worker lost.  A
        delta cache miss is not a failure: the task is immediately
        re-sent in full on the same connection (a full task cannot miss).
        ``timeout_s`` is the (possibly adaptive) deadline for this
        attempt; it defaults to the static ``task_timeout_s``.  Outcomes
        feed the worker's health history and circuit breaker.
        """
        timeout_s = self.task_timeout_s if timeout_s is None else timeout_s
        # Deltas are computed per endpoint at send time, so the second
        # task a worker receives in a round already references what the
        # first one shipped (versions cannot change mid-round).
        wire_task = self.ledger.delta_task(task, self.ledger.acked(endpoint))
        resyncing = False
        while True:
            seq = self._next_seq()
            payload = codec.encode_task(
                wire_task,
                seq,
                compression=self.compression,
                wire_dtype=self.wire_dtype,
                arena=self._arena,
            )
            start = time.perf_counter()
            dispatch_ts = self.telemetry.now()
            try:
                msg_type, reply = endpoint.conn.request(
                    MSG_TASK, payload, timeout=timeout_s
                )
                if msg_type == MSG_ERROR:
                    info = codec.decode_error_info(reply)
                    if info.get("code") == "cache_miss" and not resyncing:
                        # The daemon restarted (or was swapped) since we
                        # last acknowledged: forget its cache and ship
                        # the full state once, outside the retry budget.
                        self.ledger.forget(endpoint, cache_miss=True)
                        if self.telemetry.enabled:
                            with self._lock:
                                self.telemetry.emit(
                                    "transport.delta_resync",
                                    worker=endpoint.address,
                                    round=task.round_index,
                                    participant=task.participant_id,
                                    missing=int(info.get("missing", 0)),
                                )
                        wire_task = task
                        resyncing = True
                        continue
                    # The worker is healthy, the task failed remotely.
                    endpoint.health.record_task(ok=False)
                    endpoint.breaker.record_failure()
                    return None, f"remote error: {info['error']}"
                if msg_type != MSG_UPDATE:
                    raise ProtocolError(
                        f"expected update, got message type {msg_type:#x}"
                    )
                update, reply_seq = codec.decode_update(reply)
                if reply_seq != seq:
                    raise ProtocolError(
                        f"reply seq {reply_seq} does not match request seq {seq}"
                    )
            except socket.timeout:
                endpoint.health.record_task(ok=False)
                endpoint.breaker.record_failure()
                self._mark_lost(
                    endpoint, f"task deadline ({timeout_s:g}s) exceeded"
                )
                return None, f"task timed out after {timeout_s:g}s"
            except (ProtocolError, OSError) as exc:
                endpoint.health.record_task(ok=False)
                endpoint.breaker.record_failure()
                self._mark_lost(endpoint, str(exc))
                return None, f"{type(exc).__name__}: {exc}"
            break
        rtt = time.perf_counter() - start
        endpoint.health.record_task(ok=True, rtt_s=rtt)
        endpoint.breaker.record_success()
        receive_ts = self.telemetry.now()
        if self.telemetry.enabled and update.spans is not None:
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
        if task.state_versions is not None:
            self.ledger.record(endpoint, task.state_versions)
        if self.telemetry.enabled:
            with self._lock:
                self.telemetry.observe("transport.task_rtt_s", rtt)
                self.telemetry.observe(
                    f"transport.task_rtt_s.p{task.participant_id}", rtt
                )
                self.telemetry.observe("transport.payload_bytes", len(payload))
        return (
            TaskResult(
                task.participant_id,
                update,
                attempts=1,
                compute_s=update.compute_time_s if update else 0.0,
            ),
            "",
        )

    def run_tasks(self, tasks: Sequence[LocalStepTask]) -> List[TaskResult]:
        telemetry = self.telemetry
        round_index = tasks[0].round_index if tasks else self._round_counter
        self._round_counter += 1
        live = self._ensure_workers()
        self.ledger.begin_round()
        with self._lock:
            self._hedge_stats = {"dispatched": 0, "wins": 0, "duplicates": 0}
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        attempts = [0] * len(tasks)
        last_error = ["no live workers"] * len(tasks)
        #: wall seconds already spent executing each task, every pass
        #: and hedge included — the total-budget accounting
        budget_spent = [0.0] * len(tasks)

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
        pending = list(range(len(tasks)))
        #: worker each task index failed on last (avoided on retry)
        failed_on: Dict[int, WorkerEndpoint] = {}
        # Attempt 0 is the first dispatch; each extra pass is a retry,
        # preceded by full-jitter exponential backoff (private RNG).
        for attempt in range(self.max_retries + 1):
            if not pending:
                break
            if attempt > 0:
                delay = self._backoff.delay(attempt)
                if delay > 0:
                    if telemetry.enabled:
                        telemetry.observe("executor.retry_backoff_s", delay)
                        telemetry.emit(
                            "executor.retry_backoff",
                            backend=self.name,
                            round=round_index,
                            attempt=attempt,
                            delay_s=delay,
                        )
                    time.sleep(delay)
            live = [
                e
                for e in self._endpoints
                if e.alive and e.breaker.state != BREAKER_OPEN
            ]
            if not live:
                break
            live.sort(key=lambda e: -e.health.score())
            pending = self._run_pass(
                tasks, pending, live, results, attempts, last_error,
                failed_on, budget_spent,
            )
            if pending and attempt < self.max_retries and telemetry.enabled:
                for index in pending:
                    telemetry.count("executor.task_retries")
                    telemetry.emit(
                        "executor.task_retry",
                        backend=self.name,
                        round=tasks[index].round_index,
                        participant=tasks[index].participant_id,
                        attempt=attempts[index] + 1,
                        error=last_error[index],
                    )

        final: List[TaskResult] = []
        for index, task in enumerate(tasks):
            result = results[index]
            if result is None:
                if telemetry.enabled:
                    telemetry.count("executor.worker_crashes")
                    telemetry.emit(
                        "executor.worker_crash",
                        backend=self.name,
                        round=task.round_index,
                        participant=task.participant_id,
                        attempts=max(attempts[index], 1),
                        error=last_error[index],
                    )
                result = TaskResult(
                    task.participant_id,
                    None,
                    attempts=max(attempts[index], 1),
                    error=last_error[index],
                )
            else:
                result.attempts = attempts[index]
            final.append(result)

        if telemetry.enabled:
            sent, received = self._traffic_snapshot()
            telemetry.gauge("executor.inflight", 0)
            telemetry.emit(
                "transport.round",
                round=round_index,
                workers_live=len([e for e in self._endpoints if e.alive]),
                tasks=len(tasks),
                failed=sum(1 for r in final if not r.ok),
                bytes_sent=sent - bytes_before[0],
                bytes_received=received - bytes_before[1],
            )
            self.ledger.end_round(telemetry, round_index, len(tasks))
            with self._lock:
                hedge = dict(self._hedge_stats)
            if hedge["dispatched"]:
                telemetry.count("transport.hedges", hedge["dispatched"])
                telemetry.count("transport.hedge_wins", hedge["wins"])
                telemetry.count("transport.hedge_duplicates", hedge["duplicates"])
            telemetry.emit(
                "transport.health",
                round=round_index,
                hedges=hedge["dispatched"],
                hedge_wins=hedge["wins"],
                hedge_duplicates=hedge["duplicates"],
                workers=[
                    {
                        "worker": e.address,
                        "score": round(e.health.score(), 4),
                        "state": e.breaker.state,
                        "alive": e.alive,
                        "ewma_rtt_ms": (
                            round(e.health.ewma_rtt_s * 1000.0, 3)
                            if e.health.ewma_rtt_s is not None
                            else None
                        ),
                        "deadline_s": round(
                            e.health.deadline(
                                self.task_timeout_s,
                                self.resilience.deadline_floor_s,
                                self.resilience.adaptive_deadlines,
                            ),
                            3,
                        ),
                        "ok": e.health.successes,
                        "failed": e.health.failures,
                        "heartbeat_failures": e.health.heartbeat_failures,
                        "hedge_wins": e.health.hedge_wins,
                    }
                    for e in self._endpoints
                ],
            )
        return final

    def _traffic_snapshot(self) -> Tuple[int, int]:
        """Wire bytes (sent, received) so far over every endpoint,
        replaced connections included, so per-round deltas are >= 0."""
        totals = [endpoint.traffic() for endpoint in self._endpoints]
        return sum(t[0] for t in totals), sum(t[1] for t in totals)

    def _run_pass(
        self,
        tasks: Sequence[LocalStepTask],
        pending: Sequence[int],
        live: Sequence[WorkerEndpoint],
        results: List[Optional[TaskResult]],
        attempts: List[int],
        last_error: List[str],
        failed_on: Dict[int, WorkerEndpoint],
        budget_spent: List[float],
    ) -> List[int]:
        """One dispatch pass: every live worker *pulls* the next task.

        A shared queue replaces the old static round-robin assignment —
        fast workers naturally drain more of it, so dispatch follows
        the health ordering without a planner.  A worker with an empty
        queue speculatively re-dispatches (hedges) a task that has been
        in flight elsewhere past its hedge threshold; the first valid
        result wins and a loser's late reply is discarded — but still
        runs through ``_execute_on``'s ledger update, keeping the
        delta-dispatch bookkeeping truthful on both replicas.  Returns
        the task indices that still need a retry pass.
        """
        cond = threading.Condition()
        queue: deque = deque(pending)
        active: Dict[int, Set[WorkerEndpoint]] = {i: set() for i in pending}
        started: Dict[int, float] = {}
        hedged: Set[int] = set()
        hedge_on = self.resilience.hedge_dispatch and len(live) > 1

        def claim(endpoint: WorkerEndpoint):
            """Pick ``(index, is_hedge)`` for this worker (cond held)."""
            others_alive = any(e is not endpoint and e.alive for e in live)
            for index in queue:
                if failed_on.get(index) is endpoint and others_alive:
                    # Retries go to a different replica when one exists.
                    continue
                if not endpoint.breaker.try_acquire():
                    return None
                queue.remove(index)
                active[index].add(endpoint)
                started.setdefault(index, time.monotonic())
                return index, False
            if not hedge_on or queue:
                return None
            now = time.monotonic()
            for index, owners in active.items():
                if results[index] is not None or not owners:
                    continue
                if endpoint in owners or index in hedged:
                    continue
                if failed_on.get(index) is endpoint:
                    continue
                primary = next(iter(owners))
                threshold = primary.health.hedge_threshold(
                    self.resilience.hedge_threshold_s
                )
                elapsed = now - started.get(index, now)
                if threshold is None or elapsed < threshold:
                    continue
                if not endpoint.breaker.try_acquire():
                    return None
                hedged.add(index)
                active[index].add(endpoint)
                return index, True
            return None

        def work_left() -> bool:
            if queue:
                return True
            return any(
                owners and results[index] is None
                for index, owners in active.items()
            )

        def drive(endpoint: WorkerEndpoint) -> None:
            while True:
                with cond:
                    pick = None
                    while pick is None:
                        if not work_left():
                            return
                        if (
                            not endpoint.alive
                            or endpoint.breaker.state == BREAKER_OPEN
                        ):
                            return
                        pick = claim(endpoint)
                        if pick is None:
                            # Re-check on a short tick: hedge thresholds
                            # are time-based, not event-based.
                            cond.wait(0.05)
                    index, is_hedge = pick
                    attempts[index] += 1
                    if is_hedge:
                        with self._lock:
                            self._hedge_stats["dispatched"] += 1
                            if self.telemetry.enabled:
                                self.telemetry.emit(
                                    "transport.hedge",
                                    worker=endpoint.address,
                                    round=tasks[index].round_index,
                                    participant=tasks[index].participant_id,
                                )
                budget_left = self.task_budget_s - budget_spent[index]
                if budget_left <= 0.05:
                    result = None
                    reason = f"task budget ({self.task_budget_s:g}s) exhausted"
                    elapsed = 0.0
                else:
                    deadline = endpoint.health.deadline(
                        self.task_timeout_s,
                        self.resilience.deadline_floor_s,
                        self.resilience.adaptive_deadlines,
                    )
                    begin = time.monotonic()
                    result, reason = self._execute_on(
                        endpoint, tasks[index],
                        timeout_s=min(deadline, budget_left),
                    )
                    elapsed = time.monotonic() - begin
                with cond:
                    budget_spent[index] += elapsed
                    active[index].discard(endpoint)
                    if result is not None:
                        if results[index] is None:
                            results[index] = result
                            if is_hedge:
                                endpoint.health.hedge_wins += 1
                                with self._lock:
                                    self._hedge_stats["wins"] += 1
                                    if self.telemetry.enabled:
                                        self.telemetry.emit(
                                            "transport.hedge_win",
                                            worker=endpoint.address,
                                            round=tasks[index].round_index,
                                            participant=tasks[index].participant_id,
                                        )
                        else:
                            # The race already produced a winner; this
                            # reply is the hedge loser's duplicate.
                            with self._lock:
                                self._hedge_stats["duplicates"] += 1
                    else:
                        last_error[index] = reason
                        failed_on[index] = endpoint
                    cond.notify_all()

        threads = [
            threading.Thread(target=drive, args=(endpoint,), daemon=True)
            for endpoint in live
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(i for i in pending if results[i] is None)

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
