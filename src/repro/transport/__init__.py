"""``repro.transport`` — the networked participant runtime.

A pure-stdlib distributed execution layer: participant workers run as
separate daemon processes (``python -m repro serve --host --port``, or
forked from the server process by :func:`spawn_local_worker`) and speak a
length-prefixed binary protocol over TCP to the search server.
The server side is :class:`SocketBackend`, a drop-in
:class:`repro.federated.executor.ExecutionBackend` — seeded runs are
bit-identical across the ``serial``, ``process``, and ``socket``
backends.

Layers, bottom up:

* :mod:`repro.transport.protocol` — the frame codec
  (``MAGIC | version | msg_type | length | crc32 | payload``) and
  :class:`FrameConnection`, a socket wrapper with deadlines and byte
  accounting.  Malformed input raises :class:`ProtocolError`; it never
  hangs a read loop.
* :mod:`repro.transport.codec` — message payload codecs: tensor payloads
  (tasks/updates) ride the :func:`repro.nn.pack_state` blob with
  optional zlib compression and reduced wire precision, both negotiated
  at hello; the registration payload uses the same layout with every
  dtype kept.
* :mod:`repro.transport.worker` — the participant daemon: accept loop,
  hello/init registration, task execution, heartbeats, reconnects.
* :mod:`repro.transport.resilience` — the per-worker circuit breaker
  (pure bookkeeping the backend composes around dispatch and redial).
* :mod:`repro.transport.backend` — :class:`SocketBackend`: every live
  worker pulls ``LocalStepTask``s from the round's one queue under
  ``task_timeout_s``, and its circuit breaker gates dispatch and redial;
  a failed task re-enters the queue at once, steered to a different
  replica; a task out of retries degrades to offline-for-the-round
  (soft synchronisation absorbs it); workers that come back
  re-register.  Wire
  telemetry (``transport.bytes_sent/received``, RTT histograms,
  per-round byte counts, breaker transitions, per-round worker health)
  flows through the regular telemetry registry and ``repro trace``.

Chaos testing: a :class:`repro.faults.network.NetworkFaultPlan` wraps
connections on either side in a ``ChaosConnection`` that injects seeded
latency, drops, partitions, throttling, and frame corruption.

Trust model: every payload, registration included, is JSON or JSON
meta plus numeric arrays, and a malformed one is refused with
:class:`ProtocolError`; decoding runs no code from the peer.  There is no
authentication and no encryption, so run workers on hosts and networks
you control (the intended deployment is localhost / a private cluster
network).
"""

from .backend import SocketBackend, WorkerEndpoint
from .codec import (
    decode_hello,
    decode_task,
    decode_update,
    encode_hello,
    encode_task,
    encode_update,
)
from .protocol import (
    HEADER_BYTES,
    MAGIC,
    MAX_PAYLOAD_BYTES,
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
    decode_frame,
    encode_frame,
)
from .resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from .worker import READY_PREFIX, WorkerServer, serve, spawn_local_worker

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "MSG_HELLO",
    "MSG_HELLO_ACK",
    "MSG_INIT",
    "MSG_ACK",
    "MSG_TASK",
    "MSG_UPDATE",
    "MSG_HEARTBEAT",
    "MSG_HEARTBEAT_ACK",
    "MSG_SHUTDOWN",
    "MSG_ERROR",
    "ProtocolError",
    "FrameConnection",
    "encode_frame",
    "decode_frame",
    "encode_hello",
    "decode_hello",
    "encode_task",
    "decode_task",
    "encode_update",
    "decode_update",
    "WorkerServer",
    "serve",
    "READY_PREFIX",
    "SocketBackend",
    "WorkerEndpoint",
    "spawn_local_worker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
]
