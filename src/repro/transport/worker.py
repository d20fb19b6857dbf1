"""The participant worker daemon behind ``python -m repro serve`` and the
socket backend's forked local workers (:func:`spawn_local_worker` forks
one; :func:`serve_child` is its body).

A worker is the on-device half of the paper's protocol: it holds the
(immutable) participant shards it was registered with, accepts sub-model
tasks from the search server, runs the local step, and returns the
``(reward, ∇θ)`` reply.  One daemon serves one server connection at a
time; when a connection drops (server restart, network fault) the daemon
simply returns to its accept loop, so a redialling server re-registers
and the worker re-enters the pool — the reconnect story of the socket
backend.

Robustness contract of the read loop:

* a malformed frame (bad magic, CRC mismatch, oversized length, garbage
  payload) raises :class:`ProtocolError`, which **closes the
  connection** — it never hangs the loop and never kills the daemon;
* an exception inside a local step is reported back as an ``error``
  frame (the server degrades that task), the connection stays up;
* ``shutdown`` stops the daemon cleanly (used by auto-spawned workers).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import socket
import sys
import traceback
from typing import Dict, Optional, Tuple

from repro.federated import compiled
from repro.federated.executor import ParticipantSpec, run_worker_task
from repro.federated.versioning import DeltaCacheMiss
from repro.nn import tape
from repro.search_space import SupernetConfig

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
    PROTOCOL_VERSION,
    FrameConnection,
    ProtocolError,
    close_registered_sockets,
    register_socket,
)

__all__ = [
    "WorkerServer",
    "serve",
    "serve_child",
    "LocalWorker",
    "spawn_local_worker",
    "READY_PREFIX",
]

#: Line a worker prints on stdout once its listening socket is bound;
#: spawners parse it to learn the OS-assigned port (``--port 0``).
READY_PREFIX = "REPRO-WORKER-READY"


class WorkerServer:
    """One participant worker: a listening socket plus its task state.

    Parameters
    ----------
    host, port:
        Bind address; port 0 asks the OS for a free port (the bound port
        is in :attr:`port` after construction).
    idle_timeout_s:
        Exit the accept loop after this many seconds without a
        connection (None = wait forever).  Auto-spawned workers use it
        as a leak guard: a worker whose server died stops itself.
    network_fault_plan:
        Optional :class:`repro.faults.network.NetworkFaultPlan`
        (``repro serve --network-faults PLAN.json``): every accepted
        connection is wrapped in a :class:`ChaosConnection` so this
        daemon misbehaves on the wire — the worker-side half of chaos
        testing.  ``refuse`` faults close the connection straight after
        ``accept`` (the daemon-side analogue of a refused dial).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: Optional[float] = None,
        network_fault_plan=None,
    ):
        self.idle_timeout_s = idle_timeout_s
        self._chaos = None
        if network_fault_plan is not None and network_fault_plan.faults:
            # Imported lazily: repro.faults.network is a sibling of the
            # transport package and importing it at module scope would
            # cycle through repro.transport.
            from repro.faults.network import ChaosEngine

            self._chaos = ChaosEngine(network_fault_plan, side="worker")
        self._listener = register_socket(
            socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        )
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]
        self._specs: Dict[int, ParticipantSpec] = {}
        self._supernet_config: Optional[SupernetConfig] = None
        #: population-mode context (set by MSG_INIT): unknown participant
        #: ids get their spec derived on demand instead of failing
        self._population = None
        self._compression = "none"
        self._wire_dtype = "float64"
        #: delta-dispatch parameter cache (name → (version, array)).  It
        #: survives connection drops — a server that reconnects without
        #: re-registering keeps its deltas valid — but is cleared on
        #: every MSG_INIT, so a *new* server registration (including one
        #: resumed from a checkpoint) always starts from a cold cache.
        self._param_cache: Dict[str, tuple] = {}
        self._running = False
        #: the accepted socket being served, so stop() can wake its recv
        self._active: Optional[socket.socket] = None
        self.tasks_completed = 0
        self.connections_served = 0

    # ------------------------------------------------------------------
    def serve_forever(self) -> int:
        """Accept loop; returns an exit code (0 = clean shutdown)."""
        self._running = True
        try:
            while self._running:
                try:
                    self._listener.settimeout(self.idle_timeout_s)
                    sock, _addr = self._listener.accept()
                except socket.timeout:
                    return 0  # idle guard expired
                except OSError:
                    return 0  # listener shut down or closed under us (stop())
                self.connections_served += 1
                conn = FrameConnection(sock)
                if self._chaos is not None:
                    peer = "{}:{}".format(*sock.getpeername()[:2])
                    if self._chaos.refuse_connect(peer):
                        conn.close()
                        continue
                    conn = self._chaos.wrap(conn, peer)
                self._active = sock
                self._serve_connection(conn)
            return 0
        finally:
            self.close()

    def stop(self) -> None:
        """Stop the accept loop from another thread (tests).

        Closing a socket does not wake a thread blocked on it, so both
        the listener (blocked in ``accept``) and the connection being
        served (blocked in ``recv`` until its client hangs up) are shut
        down first.
        """
        self._running = False
        for sock in (self._listener, self._active):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self.close()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: FrameConnection) -> None:
        try:
            # stop() sets _running before it reads _active, so a stop that
            # raced with accept() and missed this socket is seen here.
            while self._running:
                try:
                    msg_type, payload = conn.recv_frame(timeout=None)
                except ProtocolError:
                    # Corrupt stream: there is no resync point, drop the
                    # connection.  The daemon itself stays up.
                    return
                except (socket.timeout, OSError):
                    return
                if not self._handle_frame(conn, msg_type, payload):
                    return
        finally:
            self._active = None
            conn.close()

    def _handle_frame(
        self, conn: FrameConnection, msg_type: int, payload: bytes
    ) -> bool:
        """Process one frame; returns False when the connection (or the
        whole daemon, for shutdown) should stop."""
        if msg_type == MSG_HELLO:
            try:
                hello = codec.decode_hello(payload)
            except ProtocolError as exc:
                conn.send_frame(MSG_ERROR, codec.encode_error(-1, str(exc)))
                return False
            self._compression = hello["compression"]
            self._wire_dtype = hello["wire_dtype"]
            conn.send_frame(
                MSG_HELLO_ACK,
                codec.encode_json(
                    {
                        "version": PROTOCOL_VERSION,
                        "compression": self._compression,
                        "wire_dtype": self._wire_dtype,
                        "num_specs": len(self._specs),
                    }
                ),
            )
            return True
        if msg_type == MSG_INIT:
            return self._handle_init(conn, payload)
        if msg_type == MSG_TASK:
            self._handle_task(conn, payload)
            return True
        if msg_type == MSG_HEARTBEAT:
            conn.send_frame(MSG_HEARTBEAT_ACK, payload)
            return True
        if msg_type == MSG_SHUTDOWN:
            conn.send_frame(MSG_ACK, codec.encode_json({"bye": True}))
            self._running = False
            return False
        # Unexpected-but-valid type (e.g. a stray ack): ignore it.
        return True

    def _handle_init(self, conn: FrameConnection, payload: bytes) -> bool:
        """Install a registration; a payload that does not decode is
        answered with an error frame and ends the connection."""
        try:
            specs, supernet_config, population = codec.decode_init(payload)
        except ProtocolError as exc:
            conn.send_frame(MSG_ERROR, codec.encode_error(-1, str(exc)))
            return False
        # A daemon forked from a server serves on the forking thread and
        # inherits its compiled models and the counters; a registration
        # starts from none of them.
        compiled.reset_cache()
        tape.reset_stats()
        self._specs = {spec.participant_id: spec for spec in specs}
        self._supernet_config = supernet_config
        self._population = population
        # A registration starts a new server timeline: versions from
        # the previous one must never satisfy a delta reference.
        self._param_cache.clear()
        conn.send_frame(MSG_ACK, codec.encode_json({"num_specs": len(self._specs)}))
        return True

    def _handle_task(self, conn: FrameConnection, payload: bytes) -> None:
        seq = -1

        def fail(message: str, **fields) -> None:
            conn.send_frame(MSG_ERROR, codec.encode_error(seq, message, **fields))

        try:
            task, seq = codec.decode_task(payload)
            update, _ = run_worker_task(
                task,
                param_cache=self._param_cache,
                specs=self._specs,
                population=self._population,
                supernet_config=self._supernet_config,
            )
            self.tasks_completed += 1
            conn.send_frame(
                MSG_UPDATE,
                codec.encode_update(
                    update,
                    seq,
                    compression=self._compression,
                    wire_dtype=self._wire_dtype,
                ),
            )
        except DeltaCacheMiss as miss:
            fail(f"delta cache miss: {miss}", code="cache_miss", missing=len(miss.missing))
        except ProtocolError as exc:
            fail(f"bad task: {exc}")
        except Exception:
            fail(f"local step failed:\n{traceback.format_exc()}")


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    idle_timeout_s: Optional[float] = None,
    announce: bool = True,
    network_fault_plan=None,
) -> int:
    """Run a worker daemon until shutdown; the ``repro serve`` body.

    Prints ``REPRO-WORKER-READY <host> <port>`` once listening so a
    spawner using ``--port 0`` can learn the bound port.
    """
    server = WorkerServer(
        host,
        port,
        idle_timeout_s=idle_timeout_s,
        network_fault_plan=network_fault_plan,
    )
    if announce:
        print(f"{READY_PREFIX} {server.host} {server.port}", flush=True)
        print(
            f"worker pid={os.getpid()} listening on "
            f"{server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
    return server.serve_forever()


def serve_child(ready, host: str, idle_timeout_s: Optional[float]) -> None:
    """Body of a worker process started by ``spawn_local_worker``.

    A forked child shares every descriptor its parent held.  It closes
    the inherited protocol sockets first (the ones
    :func:`~repro.transport.protocol.register_socket` recorded) — among
    them the parent's connections to other workers, so a connection the
    parent drops still reaches its peer as EOF — and points
    stdout/stderr at the null device, so the daemon never writes into
    its parent's terminal or logs.  Then it binds ``host`` on port 0 and
    sends the bound ``(host, port)`` over the ``ready`` pipe instead of
    printing a READY line.
    """
    close_registered_sockets()
    # The inherited heap is the parent's: keep the collector off it, so
    # collections stay small and never copy its shared pages.
    gc.freeze()
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.close(null)
    server = WorkerServer(host, 0, idle_timeout_s=idle_timeout_s)
    ready.send((server.host, server.port))
    ready.close()
    server.serve_forever()


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
