"""Serialization helpers: state flattening and wire-size accounting.

The federated simulator needs to (a) snapshot and restore model state for
the staleness memory pools, (b) measure how many bytes a model costs to
transmit — the quantity the paper's adaptive-transmission scheme sorts
sub-models by — and (c) put state dicts on a real wire for the socket
execution backend (:mod:`repro.transport`).

Two size accountings coexist deliberately:

* :func:`state_size_bytes` — the *analytic* estimate (4 bytes/scalar,
  float32), matching the paper's Fig. 7 cost model; and
* :func:`payload_size_bytes` — the *exact* size of the packed blob
  :func:`pack_state` produces (per-entry headers, chosen wire precision,
  optional zlib compression), which is what the transport layer actually
  sends.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

from .arena import ParameterArena
from .modules import Module

__all__ = [
    "WIRE_DTYPES",
    "pack_state",
    "unpack_state",
    "state_num_parameters",
    "state_size_bytes",
    "payload_size_bytes",
    "model_size_megabytes",
    "clone_state",
]

_WIRE_BYTES_PER_SCALAR = 4  # the analytic model assumes float32 scalars

#: Wire precisions the payload codec can ship.  ``float64`` is lossless
#: for the (float64) parameter arrays — the precision the socket backend
#: uses by default so seeded runs stay bit-identical across backends;
#: ``float32``/``float16`` trade precision for bytes (Sec. IV's
#: bandwidth-constrained devices) and are therefore *not* bit-identical.
WIRE_DTYPES = {
    "float16": np.float16,
    "float32": np.float32,
    "float64": np.float64,
}


def pack_state(
    state: Dict[str, np.ndarray],
    *,
    dtype: str = "float32",
    compress: bool = False,
    arena: Optional[ParameterArena] = None,
) -> bytes:
    """Serialize a state dict to the packed binary blob.

    The one state encoding on the wire (tasks and updates, both
    directions); ~40 bytes of overhead per entry::

        name_len (u16 BE) | name utf-8 | dtype_len (u8) | dtype.str |
        ndim (u8) | dims (u32 BE each) | raw C-order bytes

    Entries keep dict order; the stored ``dtype.str`` carries the byte
    order, so the blob is self-describing and platform-portable.
    ``dtype`` selects the wire precision (see :data:`WIRE_DTYPES`),
    ``compress=True`` zlib-compresses the whole blob.  The output is
    deterministic: the same state always produces the same bytes.

    ``arena`` is a fast path, never a different format: an entry that
    *is* one of the arena's live float64 views, shipped at float64, has
    its data bytes sliced straight out of the arena's contiguous buffer
    (a zero-copy memoryview range) instead of going through
    ``ascontiguousarray``/``tobytes``.  Any other entry — not an arena
    view, or a narrowing wire dtype that needs a real conversion — is
    packed the ordinary way, so the bytes are identical with or without
    the arena (asserted in tests).
    """
    if dtype not in WIRE_DTYPES:
        raise ValueError(
            f"dtype must be one of {sorted(WIRE_DTYPES)}, got {dtype!r}"
        )
    wire = WIRE_DTYPES[dtype]
    raw = None
    if arena is not None and wire == arena.data.dtype:
        raw = memoryview(arena.data).cast("B")
        itemsize = arena.data.itemsize
    parts = []
    for name, value in state.items():
        entry = arena.index.get(name) if raw is not None else None
        if entry is not None and arena.view(name) is value:
            array = value
            data = raw[entry.offset * itemsize : (entry.offset + entry.size) * itemsize]
        else:
            array = np.ascontiguousarray(np.asarray(value, dtype=wire))
            data = array.tobytes()
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        if len(name_bytes) > 0xFFFF or len(dtype_bytes) > 0xFF or array.ndim > 0xFF:
            raise ValueError(f"state entry {name!r} does not fit the packed format")
        parts.append(
            len(name_bytes).to_bytes(2, "big")
            + name_bytes
            + bytes([len(dtype_bytes)])
            + dtype_bytes
            + bytes([array.ndim])
            + b"".join(dim.to_bytes(4, "big") for dim in array.shape)
        )
        parts.append(data)
    payload = b"".join(parts)
    if compress:
        payload = zlib.compress(payload)
    return payload


def unpack_state(payload: bytes, *, compressed: bool = False) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_state` (arrays come back as float64)."""
    if compressed:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise ValueError(f"corrupt compressed state payload: {exc}") from exc
    state: Dict[str, np.ndarray] = {}
    offset = 0
    total = len(payload)

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > total:
            raise ValueError(
                f"truncated packed state blob at byte {offset} "
                f"(wanted {count} more of {total})"
            )
        chunk = payload[offset : offset + count]
        offset += count
        return chunk

    while offset < total:
        name_len = int.from_bytes(take(2), "big")
        name = take(name_len).decode("utf-8")
        dtype_len = take(1)[0]
        try:
            dt = np.dtype(take(dtype_len).decode("ascii"))
        except (TypeError, UnicodeDecodeError) as exc:
            raise ValueError(f"packed state entry {name!r} has a bad dtype") from exc
        ndim = take(1)[0]
        shape = tuple(int.from_bytes(take(4), "big") for _ in range(ndim))
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = take(size * dt.itemsize)
        state[name] = (
            np.frombuffer(data, dtype=dt).reshape(shape).astype(np.float64)
        )
    return state


def state_num_parameters(state: Dict[str, np.ndarray]) -> int:
    return int(sum(v.size for v in state.values()))


def state_size_bytes(state: Dict[str, np.ndarray]) -> int:
    """*Analytic* wire size of a state dict, assuming 4 bytes/scalar.

    This is the paper's cost model (raw float32 scalars, no container
    overhead) and what the Fig. 7 adaptive-transmission results sort by.
    For the exact size of the bytes the transport actually ships, use
    :func:`payload_size_bytes`.
    """
    return _WIRE_BYTES_PER_SCALAR * state_num_parameters(state)


def payload_size_bytes(
    state: Dict[str, np.ndarray], *, compressed: bool = False, dtype: str = "float32"
) -> int:
    """*Exact* on-wire size of ``state`` as the transport would send it.

    Unlike :func:`state_size_bytes` this includes the packed blob's
    per-entry headers and reflects the chosen wire precision and
    optional zlib compression.
    """
    return len(pack_state(state, dtype=dtype, compress=compressed))


def model_size_megabytes(model: Module) -> float:
    """Wire size of a model's trainable parameters in MB (float32)."""
    return _WIRE_BYTES_PER_SCALAR * model.num_parameters() / 1e6


def clone_state(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep-copy a state dict."""
    return {k: np.array(v, copy=True) for k, v in state.items()}
