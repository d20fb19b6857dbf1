"""Network-level chaos: seeded wire fault plans and ``ChaosConnection``.

Where :mod:`repro.faults.plan` breaks the *model* layer (corrupt
gradients, dropped updates, offline flaps), this module breaks the
*wire*: a :class:`NetworkFaultPlan` schedules latency, mid-frame
connection drops, connect refusals, blackhole partitions, slow-drip
throttling, and frame corruption against the transport's framed TCP
protocol.  Plans are plain JSON, shareable between a chaos run, its bug
report, and the regression test that reproduces it::

    {
      "seed": 7,
      "faults": [
        {"kind": "latency", "probability": 0.5, "latency_s": 0.05},
        {"kind": "drop", "probability": 0.02},
        {"kind": "blackhole", "probability": 0.01, "duration_s": 2.0}
      ]
    }

Injection happens inside :class:`ChaosConnection`, a wrapper around
:class:`repro.transport.protocol.FrameConnection` that the
``SocketBackend`` (and ``repro serve --network-faults``) interpose on
every connection.  Each connection gets its own RNG stream derived
deterministically from the plan seed and a stable connection key, so a
given plan replays the same decision sequence per connection regardless
of how other connections interleave.  The streams are private — model
and search RNG are never touched, so an *empty* plan is bit-identical
to no plan at all.

Fault kinds
-----------

``latency``
    Sleep ``latency_s + U(0, jitter_s)`` before a send or receive (a
    congested or distant peer).
``drop``
    Write part of a frame, then hard-close the socket — the peer sees a
    mid-frame EOF (``ProtocolError``), this side sees ``OSError``.
``refuse``
    Reject the TCP connect itself: the backend's dial raises
    ``ConnectionRefusedError``; a worker daemon closes straight after
    ``accept``.
``blackhole``
    Open a partition window of ``duration_s``: sends are silently
    swallowed and receives stall until the window closes or the caller's
    deadline fires (both directions, like a dropped route).
``throttle``
    Deliver the frame at ``bytes_per_s`` in small chunks (slow-drip
    sender testing the receiver's whole-frame deadline).
``corrupt``
    Flip one random bit of the encoded frame; the peer's CRC/header
    check raises ``ProtocolError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "NETWORK_FAULT_KINDS",
    "NetworkFaultSpec",
    "NetworkFaultPlan",
    "ChaosEngine",
    "ChaosConnection",
]

#: Every network fault kind a plan may request (see the module docstring).
NETWORK_FAULT_KINDS = (
    "latency",
    "drop",
    "refuse",
    "blackhole",
    "throttle",
    "corrupt",
)

#: Which kinds roll on which wire operation.
_SEND_KINDS = ("latency", "drop", "blackhole", "throttle", "corrupt")
_RECV_KINDS = ("latency", "drop", "blackhole")


@dataclasses.dataclass(frozen=True)
class NetworkFaultSpec:
    """One wire fault: kind + trigger chance + kind-specific knobs."""

    kind: str
    #: chance the fault triggers per opportunity (per send/recv/connect,
    #: drawn from the connection's seeded chaos RNG)
    probability: float = 1.0
    #: added one-way delay for ``latency``
    latency_s: float = 0.05
    #: extra uniform jitter on top of ``latency_s``
    jitter_s: float = 0.0
    #: partition window length for ``blackhole``
    duration_s: float = 1.0
    #: delivery rate for ``throttle``
    bytes_per_s: float = 65536.0
    #: only fault peers whose ``host:port`` contains this substring;
    #: ``None`` faults every peer
    peer: Optional[str] = None
    #: stop firing after this many injections (``None`` = unlimited)
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in NETWORK_FAULT_KINDS:
            raise ValueError(
                f"unknown network fault kind {self.kind!r}; "
                f"choose from {NETWORK_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.jitter_s < 0:
            raise ValueError(f"jitter_s must be >= 0, got {self.jitter_s}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.bytes_per_s <= 0:
            raise ValueError(f"bytes_per_s must be > 0, got {self.bytes_per_s}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")

    def matches(self, peer: str) -> bool:
        """Does this spec apply to connections with ``peer``?"""
        return self.peer is None or self.peer in peer

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind}
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.kind == "latency":
            data["latency_s"] = self.latency_s
            if self.jitter_s:
                data["jitter_s"] = self.jitter_s
        if self.kind == "blackhole":
            data["duration_s"] = self.duration_s
        if self.kind == "throttle":
            data["bytes_per_s"] = self.bytes_per_s
        if self.peer is not None:
            data["peer"] = self.peer
        if self.max_events is not None:
            data["max_events"] = self.max_events
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "NetworkFaultSpec":
        if not isinstance(data, dict):
            raise ValueError(
                f"network fault spec must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(NetworkFaultSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown network fault spec key(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(known))}"
            )
        if "kind" not in data:
            raise ValueError("network fault spec requires a 'kind'")
        return NetworkFaultSpec(**data)  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class NetworkFaultPlan:
    """A seed plus an ordered list of wire faults.

    The seed derives every connection's private chaos RNG stream, so the
    same plan replays the same per-connection decisions.  An empty plan
    (``faults=()``) is inert: connections behave exactly as if no plan
    were loaded.
    """

    seed: int = 0
    faults: Tuple[NetworkFaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "NetworkFaultPlan":
        if not isinstance(data, dict):
            raise ValueError(
                f"network fault plan must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"seed", "faults"})
        if unknown:
            raise ValueError(
                f"unknown network fault plan key(s): {', '.join(unknown)}; "
                "valid keys: faults, seed"
            )
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"network fault plan seed must be an int, got {seed!r}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ValueError("network fault plan 'faults' must be a list")
        faults = tuple(NetworkFaultSpec.from_dict(spec) for spec in raw_faults)
        return NetworkFaultPlan(seed=seed, faults=faults)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "NetworkFaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid network fault plan JSON: {exc}") from exc
        return NetworkFaultPlan.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @staticmethod
    def load(path: Union[str, Path]) -> "NetworkFaultPlan":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read network fault plan: {exc}") from exc
        return NetworkFaultPlan.from_json(text)


def _stream_seed(plan_seed: int, key: str) -> Tuple[int, int]:
    """A stable 64-bit RNG seed for one connection key."""
    digest = hashlib.blake2s(key.encode("utf-8")).digest()
    return (plan_seed & 0xFFFFFFFF, int.from_bytes(digest[:8], "big"))


class ChaosEngine:
    """Applies one :class:`NetworkFaultPlan` to many connections.

    One engine lives per transport side (the backend, or one worker
    daemon).  It hands each new connection a private RNG stream keyed on
    ``(plan seed, side, slot, per-slot connection ordinal)`` — so a
    reconnect in the same slot gets a fresh but still deterministic
    stream, and nothing an OS assigns (an ephemeral port) reaches the
    key — and funnels every injected fault into telemetry as a
    ``fault.network`` event plus ``faults.network[.<kind>]`` counters.
    """

    def __init__(self, plan: NetworkFaultPlan, telemetry=None, side: str = "server"):
        self.plan = plan
        self.side = side
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._dials: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        #: RNG for connect-time ``refuse`` rolls (one stream per engine;
        #: dials happen sequentially on the registration path)
        self._connect_rng = np.random.default_rng(
            _stream_seed(plan.seed, f"{side}:connect")
        )

    @property
    def active(self) -> bool:
        return bool(self.plan.faults)

    # ------------------------------------------------------------------
    def specs_for(self, peer: str) -> List[Tuple[int, NetworkFaultSpec]]:
        """The ``(index, spec)`` pairs that may fire against ``peer``."""
        return [
            (index, spec)
            for index, spec in enumerate(self.plan.faults)
            if spec.matches(peer)
        ]

    def may_fire(self, index: int) -> bool:
        """Is spec ``index`` still under its ``max_events`` budget?"""
        spec = self.plan.faults[index]
        if spec.max_events is None:
            return True
        with self._lock:
            return self._fired.get(index, 0) < spec.max_events

    def record(self, index: int, peer: str, **detail) -> None:
        """Count one injected fault and emit its telemetry event."""
        spec = self.plan.faults[index]
        with self._lock:
            self._fired[index] = self._fired.get(index, 0) + 1
        if self._telemetry is not None:
            self._telemetry.count("faults.network")
            self._telemetry.count(f"faults.network.{spec.kind}")
            self._telemetry.emit(
                "fault.network", kind=spec.kind, peer=peer, side=self.side, **detail
            )

    def fired_counts(self) -> Dict[str, int]:
        """Total injections so far, keyed by fault kind."""
        totals: Dict[str, int] = {}
        with self._lock:
            for index, count in self._fired.items():
                kind = self.plan.faults[index].kind
                totals[kind] = totals.get(kind, 0) + count
        return totals

    # ------------------------------------------------------------------
    def refuse_connect(self, peer: str) -> bool:
        """Roll connect-refusal faults for a dial/accept of ``peer``."""
        if not self.active:
            return False
        for index, spec in self.specs_for(peer):
            if spec.kind != "refuse":
                continue
            roll = float(self._connect_rng.random())
            if roll < spec.probability and self.may_fire(index):
                self.record(index, peer)
                return True
        return False

    def wrap(self, conn, peer: str, slot: int = 0) -> "ChaosConnection":
        """Wrap a freshly established ``FrameConnection``.

        ``slot`` is the connection's stable place in the transport — the
        endpoint index on the server side; a worker daemon has one
        accept loop, so its ordinal in slot 0 is the accept ordinal.
        ``peer`` (``host:port``) only selects specs and labels telemetry.
        """
        with self._lock:
            ordinal = self._dials.get(slot, 0)
            self._dials[slot] = ordinal + 1
        return ChaosConnection(conn, self, peer, f"{self.side}:{slot}#{ordinal}")


class ChaosConnection:
    """A ``FrameConnection`` with a saboteur between caller and socket.

    Exposes the same surface the transport uses (``send_frame`` /
    ``recv_frame`` / ``request`` / ``close`` / byte counters) and
    delegates to the wrapped connection — after rolling the plan's specs
    against this connection's private RNG stream.  One roll is drawn per
    matching spec per operation whether or not it fires, so the decision
    sequence is a pure function of (plan seed, connection key, operation
    ordinal) and never of wall-clock timing.
    """

    def __init__(self, inner, engine: ChaosEngine, peer: str, key: str):
        self._inner = inner
        self._engine = engine
        self.peer = peer
        self._rng = np.random.default_rng(_stream_seed(engine.plan.seed, key))
        self._specs = engine.specs_for(peer)
        self._blackhole_until = 0.0

    # -- byte accounting passthrough -----------------------------------
    @property
    def bytes_sent(self) -> int:
        return self._inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._inner.bytes_received

    # ------------------------------------------------------------------
    def _roll(self, kinds: Tuple[str, ...]) -> List[Tuple[int, NetworkFaultSpec]]:
        """Roll every matching spec for one operation; return the firing ones."""
        fired = []
        for index, spec in self._specs:
            if spec.kind not in kinds:
                continue
            roll = float(self._rng.random())
            if roll < spec.probability and self._engine.may_fire(index):
                fired.append((index, spec))
        return fired

    def _blackhole_active(self) -> bool:
        return time.monotonic() < self._blackhole_until

    def send_frame(
        self, msg_type: int, payload: bytes = b"", timeout: Optional[float] = None
    ) -> int:
        # Imported lazily: repro.transport itself imports repro.faults.
        from ..transport.protocol import encode_frame

        frame = encode_frame(msg_type, payload)
        if not self._specs:
            return self._inner.send_bytes(frame, timeout=timeout)
        for index, spec in self._roll(_SEND_KINDS):
            if spec.kind == "latency":
                delay = spec.latency_s + spec.jitter_s * float(self._rng.random())
                self._engine.record(index, self.peer, op="send", delay_s=delay)
                time.sleep(delay)
            elif spec.kind == "blackhole":
                if not self._blackhole_active():
                    self._blackhole_until = time.monotonic() + spec.duration_s
                    self._engine.record(
                        index, self.peer, op="send", duration_s=spec.duration_s
                    )
            elif spec.kind == "corrupt":
                bit = int(self._rng.integers(0, len(frame) * 8))
                mutated = bytearray(frame)
                mutated[bit // 8] ^= 1 << (bit % 8)
                frame = bytes(mutated)
                self._engine.record(index, self.peer, op="send", bit=bit)
            elif spec.kind == "throttle":
                self._engine.record(
                    index, self.peer, op="send", bytes_per_s=spec.bytes_per_s
                )
                return self._send_throttled(frame, spec.bytes_per_s, timeout)
            elif spec.kind == "drop":
                cut = int(self._rng.integers(1, max(2, len(frame))))
                self._engine.record(index, self.peer, op="send", sent_bytes=cut)
                try:
                    self._inner.send_bytes(frame[:cut], timeout=timeout)
                finally:
                    self._inner.close()
                raise OSError("chaos: connection dropped mid-frame")
        if self._blackhole_active():
            # Swallow the whole frame: the peer never sees it, and the
            # caller's reply deadline is what surfaces the partition.
            return len(frame)
        return self._inner.send_bytes(frame, timeout=timeout)

    def _send_throttled(
        self, frame: bytes, bytes_per_s: float, timeout: Optional[float]
    ) -> int:
        chunk = max(256, int(bytes_per_s * 0.02))
        sent = 0
        for start in range(0, len(frame), chunk):
            piece = frame[start : start + chunk]
            sent += self._inner.send_bytes(piece, timeout=timeout)
            if start + chunk < len(frame):
                time.sleep(len(piece) / bytes_per_s)
        return sent

    def recv_frame(self, timeout: Optional[float] = None):
        if not self._specs:
            return self._inner.recv_frame(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        for index, spec in self._roll(_RECV_KINDS):
            if spec.kind == "latency":
                delay = spec.latency_s + spec.jitter_s * float(self._rng.random())
                if timeout is not None:
                    delay = min(delay, timeout)
                self._engine.record(index, self.peer, op="recv", delay_s=delay)
                time.sleep(delay)
            elif spec.kind == "blackhole":
                if not self._blackhole_active():
                    self._blackhole_until = time.monotonic() + spec.duration_s
                    self._engine.record(
                        index, self.peer, op="recv", duration_s=spec.duration_s
                    )
            elif spec.kind == "drop":
                self._engine.record(index, self.peer, op="recv", sent_bytes=0)
                self._inner.close()
                raise OSError("chaos: connection dropped before read")
        if self._blackhole_active():
            # Stall like a dead route: wake at window end or deadline,
            # whichever comes first.
            wake = self._blackhole_until
            if deadline is not None and deadline <= wake:
                time.sleep(max(0.0, deadline - time.monotonic()))
                raise socket.timeout("chaos: blackhole window swallowed the read")
            time.sleep(max(0.0, wake - time.monotonic()))
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        return self._inner.recv_frame(timeout=remaining)

    def request(
        self, msg_type: int, payload: bytes = b"", timeout: Optional[float] = None
    ):
        deadline = None if timeout is None else time.monotonic() + timeout
        self.send_frame(msg_type, payload, timeout=timeout)
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        return self.recv_frame(timeout=remaining)

    def close(self) -> None:
        self._inner.close()
