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

import math
import struct
import zlib
from typing import Dict, Iterator, Mapping, Optional

import numpy as np

from .arena import ParameterArena
from .modules import Module

__all__ = [
    "WIRE_DTYPES",
    "encode_entries",
    "decode_entries",
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


#: dtype kinds the packed layout carries: bool, int, unsigned int, float.
_NUMERIC_KINDS = frozenset("biuf")


def encode_entries(state: Mapping[str, np.ndarray]) -> Iterator[object]:
    """The packed layout of ``state`` with every array's dtype kept.

    Yields, per entry, its header and then its raw C-order bytes (a
    buffer, no copy when the array is already contiguous), so a caller
    can stream the entries into a file or ``b"".join`` them::

        name_len (u16 BE) | name utf-8 | dtype_len (u8) | dtype.str |
        ndim (u8) | dims (u32 BE each) | raw C-order bytes

    Entries keep dict order; the stored ``dtype.str`` carries the byte
    order, so the layout is self-describing and platform-portable.  A
    non-numeric dtype or a field that overflows is a ``ValueError``.
    """
    for name, value in state.items():
        array = np.asarray(value)
        if array.dtype.kind not in _NUMERIC_KINDS:
            raise ValueError(f"state entry {name!r} has non-numeric dtype {array.dtype.str!r}")
        name_bytes, dtype_bytes = name.encode("utf-8"), array.dtype.str.encode("ascii")
        try:
            yield struct.pack(
                f">H{len(name_bytes)}sB{len(dtype_bytes)}sB{array.ndim}I",
                len(name_bytes), name_bytes, len(dtype_bytes), dtype_bytes,
                array.ndim, *array.shape,
            )
        except struct.error as exc:
            raise ValueError(f"state entry {name!r} does not fit the packed format") from exc
        yield memoryview(np.ascontiguousarray(array))


def decode_entries(payload) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_entries`: fresh arrays, dtype kept.

    Any malformation (truncation, a bad name or dtype, a non-numeric
    dtype, trailing bytes that do not form an entry) is a ``ValueError``.
    """
    view = memoryview(payload).cast("B")
    state: Dict[str, np.ndarray] = {}
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        chunk = view[offset : offset + count]
        if len(chunk) < count:
            raise ValueError(f"truncated packed state blob at byte {offset} of {len(view)}")
        offset += count
        return chunk

    while offset < len(view):
        (name_len,) = struct.unpack(">H", take(2))
        name = str(take(name_len), "utf-8")
        dtype_len = take(1)[0]
        try:
            dt = np.dtype(str(take(dtype_len), "ascii"))
        except (TypeError, ValueError, SyntaxError) as exc:
            raise ValueError(f"packed state entry {name!r} has a bad dtype") from exc
        if dt.kind not in _NUMERIC_KINDS:
            raise ValueError(
                f"packed state entry {name!r} has non-numeric dtype {dt.str!r}"
            )
        ndim = take(1)[0]
        shape = struct.unpack(f">{ndim}I", take(4 * ndim))
        data = take(math.prod(shape) * dt.itemsize)
        state[name] = np.frombuffer(data, dtype=dt).reshape(shape).copy()
    return state


def pack_state(
    state: Dict[str, np.ndarray],
    *,
    dtype: str = "float32",
    compress: bool = False,
    arena: Optional[ParameterArena] = None,
) -> bytes:
    """Serialize a state dict to the packed binary blob.

    The one state encoding on the wire (tasks and updates, both
    directions): :func:`encode_entries`' layout, ~40 bytes of overhead
    per entry, with every array cast to the wire precision ``dtype``
    (see :data:`WIRE_DTYPES`).  ``compress=True`` zlib-compresses the
    whole blob.  The output is deterministic: the same state always
    produces the same bytes.

    ``arena`` is a fast path, never a different format: an entry that
    *is* one of the arena's live float64 views, shipped at float64, is
    packed as that view, straight out of the arena's buffer; the bytes
    are identical with or without the arena (asserted in tests).
    """
    if dtype not in WIRE_DTYPES:
        raise ValueError(
            f"dtype must be one of {sorted(WIRE_DTYPES)}, got {dtype!r}"
        )
    wire = WIRE_DTYPES[dtype]
    live = arena is not None and wire == arena.data.dtype
    cast = {
        name: value if live and name in arena.index and arena.view(name) is value
        else np.ascontiguousarray(np.asarray(value, dtype=wire))
        for name, value in state.items()
    }
    payload = b"".join(encode_entries(cast))
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
    state = decode_entries(payload)
    return {name: array.astype(np.float64, copy=False) for name, array in state.items()}


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
