"""The wire protocol: length-prefixed, CRC-checked binary frames.

Every message on a server↔worker connection is one frame::

    MAGIC (2s) | version (u8) | msg_type (u8) | length (u32) | crc32 (u32)
    payload (length bytes)

All integers are big-endian.  ``crc32`` covers the payload only, so a
bit flip anywhere in the payload is detected before the bytes reach a
codec; corruption in the header is caught by the magic/version/type/
length checks.  Anything malformed raises :class:`ProtocolError` —
callers close the connection, they never retry mid-stream (there is no
resynchronisation point inside a corrupted stream).

The framing is deliberately independent of the payload codecs
(:mod:`repro.transport.codec`): the golden-bytes test in
``tests/test_transport.py`` pins this format, and any change here is a
protocol version bump.
"""

from __future__ import annotations

import socket
import struct
import time
import weakref
import zlib
from typing import Callable, Optional, Tuple

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
    "MESSAGE_TYPES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "FrameConnection",
]

MAGIC = b"FM"  # "federated model-search"
#: 2: tensor payloads are always the packed blob (tasks *and* updates),
#: every daemon resolves delta references and honours trace contexts —
#: nothing is negotiated at hello beyond compression and wire dtype.
#: 3: the init payload is JSON meta plus a packed blob, like the task and
#: update payloads; a v2 peer's frames are refused.
PROTOCOL_VERSION = 3

#: header layout: magic, version, msg_type, payload length, payload crc32
_HEADER = struct.Struct(">2sBBII")
HEADER_BYTES = _HEADER.size  # 12

#: hard ceiling on a single frame's payload; an advertised length beyond
#: this is treated as corruption, not as a request to allocate gigabytes.
MAX_PAYLOAD_BYTES = 1 << 30

# Message types (u8).  hello/task/update/heartbeat/shutdown are the
# protocol's core vocabulary; init ships the immutable participant specs
# once per registration, ack/error are generic replies.
MSG_HELLO = 0x01
MSG_HELLO_ACK = 0x02
MSG_INIT = 0x03
MSG_ACK = 0x04
MSG_TASK = 0x05
MSG_UPDATE = 0x06
MSG_HEARTBEAT = 0x07
MSG_HEARTBEAT_ACK = 0x08
MSG_SHUTDOWN = 0x09
MSG_ERROR = 0x0A

MESSAGE_TYPES = {
    MSG_HELLO: "hello",
    MSG_HELLO_ACK: "hello_ack",
    MSG_INIT: "init",
    MSG_ACK: "ack",
    MSG_TASK: "task",
    MSG_UPDATE: "update",
    MSG_HEARTBEAT: "heartbeat",
    MSG_HEARTBEAT_ACK: "heartbeat_ack",
    MSG_SHUTDOWN: "shutdown",
    MSG_ERROR: "error",
}


class ProtocolError(ValueError):
    """The byte stream violates the wire protocol (malformed frame,
    CRC mismatch, oversized payload, truncation, version skew)."""


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """One complete frame for ``payload`` under ``msg_type``."""
    if msg_type not in MESSAGE_TYPES:
        raise ValueError(f"unknown message type {msg_type:#x}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, msg_type, len(payload), crc) + payload


def _check_header(header: bytes) -> Tuple[int, int, int]:
    """Validate a 12-byte header; returns (msg_type, length, crc32)."""
    magic, version, msg_type, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} not supported "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    if msg_type not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {msg_type:#x}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"advertised payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return msg_type, length, crc


def _check_payload(payload: bytes, crc: int) -> bytes:
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise ProtocolError(
            f"payload CRC mismatch (header says {crc:#010x}, "
            f"payload hashes to {actual:#010x})"
        )
    return payload


def decode_frame(data: bytes) -> Tuple[int, bytes, int]:
    """Decode one frame from ``data``; returns (msg_type, payload, consumed).

    Raises :class:`ProtocolError` on any malformation, including
    truncation (``data`` shorter than the frame it advertises).
    """
    if len(data) < HEADER_BYTES:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes, header needs {HEADER_BYTES}"
        )
    msg_type, length, crc = _check_header(data[:HEADER_BYTES])
    end = HEADER_BYTES + length
    if len(data) < end:
        raise ProtocolError(
            f"truncated frame: payload advertises {length} bytes, "
            f"only {len(data) - HEADER_BYTES} present"
        )
    payload = _check_payload(bytes(data[HEADER_BYTES:end]), crc)
    return msg_type, payload, end


#: Every socket this process opened for the protocol — each one a
#: :class:`FrameConnection` wraps, and each worker's listener — so a
#: forked worker can close its copies (:func:`close_registered_sockets`)
#: without walking the inherited heap.
_SOCKETS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def register_socket(sock: socket.socket) -> socket.socket:
    """Add ``sock`` to the sockets a forked child closes; returns it."""
    _SOCKETS.add(sock)
    return sock


def close_registered_sockets() -> None:
    """Close this process's descriptor of every registered socket (no
    shutdown, so the parent's copy stays open)."""
    for sock in list(_SOCKETS):
        sock.close()


class FrameConnection:
    """A socket speaking frames, with deadlines and byte accounting.

    All receive paths honour a deadline: a peer that stops mid-frame (or
    a stream that turns to garbage) produces :class:`socket.timeout` /
    :class:`ProtocolError` instead of a hung read loop.  ``bytes_sent``
    and ``bytes_received`` count raw wire bytes (headers included); the
    optional ``on_traffic`` callback fires as ``(sent, received)`` deltas
    so telemetry counters can ride along without the protocol layer
    importing telemetry.
    """

    def __init__(
        self,
        sock: socket.socket,
        on_traffic: Optional[Callable[[int, int], None]] = None,
    ):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = register_socket(sock)
        self._on_traffic = on_traffic
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    def send_frame(
        self, msg_type: int, payload: bytes = b"", timeout: Optional[float] = None
    ) -> int:
        """Send one frame; returns the number of wire bytes written."""
        return self.send_bytes(encode_frame(msg_type, payload), timeout=timeout)

    def send_bytes(self, data: bytes, timeout: Optional[float] = None) -> int:
        """Write pre-encoded wire bytes (the chaos wrapper's hook point)."""
        self._sock.settimeout(timeout)
        self._sock.sendall(data)
        self.bytes_sent += len(data)
        if self._on_traffic is not None:
            self._on_traffic(len(data), 0)
        return len(data)

    def _recv_exact(self, count: int, deadline: Optional[float]) -> bytes:
        chunks = []
        remaining = count
        while remaining > 0:
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise socket.timeout("frame read deadline exceeded")
                self._sock.settimeout(budget)
            else:
                self._sock.settimeout(None)
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ProtocolError(
                    f"connection closed mid-frame ({count - remaining} of "
                    f"{count} bytes read)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
            self.bytes_received += len(chunk)
            if self._on_traffic is not None:
                self._on_traffic(0, len(chunk))
        return b"".join(chunks)

    def recv_frame(self, timeout: Optional[float] = None) -> Tuple[int, bytes]:
        """Read one complete frame; returns ``(msg_type, payload)``.

        ``timeout`` bounds the *whole* frame (header + payload), so a
        trickling peer cannot stretch one read forever.  Raises
        :class:`socket.timeout` on deadline, :class:`ProtocolError` on
        malformed bytes or mid-frame EOF, and returns cleanly only for a
        valid frame.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        header = self._recv_exact(HEADER_BYTES, deadline)
        msg_type, length, crc = _check_header(header)
        payload = self._recv_exact(length, deadline) if length else b""
        return msg_type, _check_payload(payload, crc)

    def request(
        self, msg_type: int, payload: bytes = b"", timeout: Optional[float] = None
    ) -> Tuple[int, bytes]:
        """Send one frame and read one reply under a shared deadline."""
        deadline = None if timeout is None else time.monotonic() + timeout
        self.send_frame(msg_type, payload, timeout=timeout)
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        return self.recv_frame(timeout=remaining)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
