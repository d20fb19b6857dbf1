"""Message payload codecs for the socket transport.

Frame payloads come in three shapes:

* **JSON control payloads** (hello, acks, errors): UTF-8 JSON objects.
* **Tensor payloads** (tasks, updates): a small JSON meta header plus an
  array blob in the :func:`repro.nn.pack_state` format, in both
  directions::

      flags (u8) | meta_len (u32 BE) | meta_json | packed state blob

  ``flags`` bit 0 marks a zlib-compressed blob.  The wire precision
  (``float64``/``float32``/``float16``) travels in the meta, so a
  decoder never guesses; both knobs are negotiated once at hello and
  then applied per message.  ``float64`` (the default) is lossless for
  the simulator's float64 arrays — the property that keeps seeded runs
  bit-identical across execution backends.  JSON floats round-trip
  exactly (CPython's ``repr`` contract), so scalar fields lose nothing.
* **The init payload** (participant registration): a pickle of the
  immutable :class:`~repro.federated.executor.ParticipantSpec` list plus
  the supernet geometry.  Pickle is acceptable here because workers only
  accept connections from the operator's own hosts (see the package
  docstring's trust model); tasks and updates, the high-rate messages,
  stay on the restricted tensor codec.

Every decoder raises :class:`~repro.transport.protocol.ProtocolError`
on malformed input so transport read loops can treat codec failures and
framing failures uniformly.
"""

from __future__ import annotations

import json
import pickle
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.federated.executor import ParticipantSpec
from repro.federated.participant import LocalStepTask, ParticipantUpdate
from repro.nn.serialize import WIRE_DTYPES, pack_state, unpack_state
from repro.search_space import ArchitectureMask, SupernetConfig
from repro.telemetry.tracing import TraceContext

from .protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "COMPRESSIONS",
    "encode_json",
    "decode_json",
    "encode_hello",
    "decode_hello",
    "encode_init",
    "decode_init",
    "encode_task",
    "decode_task",
    "encode_update",
    "decode_update",
    "encode_error",
    "decode_error_info",
]

#: Wire compression modes negotiable at hello.
COMPRESSIONS = ("none", "zlib")

_FLAG_ZLIB = 0x01
_META_LEN = struct.Struct(">I")


# ----------------------------------------------------------------------
# JSON control payloads
# ----------------------------------------------------------------------
def encode_json(obj: Dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_json(payload: bytes) -> Dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"JSON payload must be an object, got {type(obj).__name__}"
        )
    return obj


def encode_hello(compression: str = "none", wire_dtype: str = "float64") -> bytes:
    """The client's opening message: protocol version + wire options."""
    if compression not in COMPRESSIONS:
        raise ValueError(
            f"compression must be one of {COMPRESSIONS}, got {compression!r}"
        )
    if wire_dtype not in WIRE_DTYPES:
        raise ValueError(
            f"wire_dtype must be one of {sorted(WIRE_DTYPES)}, got {wire_dtype!r}"
        )
    return encode_json(
        {
            "version": PROTOCOL_VERSION,
            "compression": compression,
            "wire_dtype": wire_dtype,
        }
    )


def decode_hello(payload: bytes) -> Dict:
    hello = decode_json(payload)
    if hello.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"hello advertises protocol version {hello.get('version')!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if hello.get("compression") not in COMPRESSIONS:
        raise ProtocolError(
            f"hello requests unknown compression {hello.get('compression')!r}"
        )
    # A tuple compares by equality, so an unhashable value is refused too.
    if hello.get("wire_dtype") not in tuple(WIRE_DTYPES):
        raise ProtocolError(
            f"hello requests unknown wire dtype {hello.get('wire_dtype')!r}"
        )
    return hello


def encode_error(seq: int, error: str, **extra) -> bytes:
    """An error reply; ``extra`` carries optional machine-readable fields
    (e.g. ``code="cache_miss"`` for delta-dispatch resynchronisation)."""
    return encode_json({"seq": seq, "error": error, **extra})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def decode_error_info(payload: bytes) -> Dict:
    """The full error object: ``seq`` (an int) and ``error`` (a str),
    plus the optional ``code`` (a str) and ``missing`` (a non-negative
    int, the count of a ``cache_miss``).  A field of another type is a
    :class:`ProtocolError`, like any other malformed frame."""
    obj = decode_json(payload)
    if not _is_int(obj.get("seq")):
        raise ProtocolError(f"error frame has a bad seq {obj.get('seq')!r}")
    if not isinstance(obj.get("error"), str):
        raise ProtocolError(f"error frame has a bad message {obj.get('error')!r}")
    if not isinstance(obj.get("code", ""), str):
        raise ProtocolError(f"error frame has a bad code {obj['code']!r}")
    missing = obj.get("missing", 0)
    if not (_is_int(missing) and missing >= 0):
        raise ProtocolError(f"error frame has a bad missing count {missing!r}")
    return obj


# ----------------------------------------------------------------------
# Registration payload (specs + geometry; pickle, trusted peers only)
# ----------------------------------------------------------------------
def encode_init(
    specs: Sequence[ParticipantSpec],
    supernet_config: SupernetConfig,
    population: object = None,
) -> bytes:
    """Registration payload: specs + geometry (which carries the compute
    dtype), plus (population mode) the context workers derive on-demand
    specs from (:class:`~repro.population.PopulationContext`)."""
    obj = {"specs": list(specs), "supernet_config": supernet_config}
    if population is not None:
        obj["population"] = population
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_init(payload: bytes) -> Tuple[List[ParticipantSpec], SupernetConfig, object]:
    """Inverse of :func:`encode_init`; an absent population reads as
    population off."""
    try:
        obj = pickle.loads(payload)
        specs = list(obj["specs"])
        config = obj["supernet_config"]
        population = obj.get("population")
    except Exception as exc:  # truncated/corrupt pickle, wrong shape
        raise ProtocolError(f"malformed init payload: {exc}") from exc
    if (
        not all(isinstance(s, ParticipantSpec) for s in specs)
        or not isinstance(config, SupernetConfig)
        or config.compute_dtype not in ("float64", "float32")
    ):
        raise ProtocolError("init payload carries unexpected object types")
    return specs, config, population


# ----------------------------------------------------------------------
# Tensor payloads (the codec the high-rate messages use)
# ----------------------------------------------------------------------
def _pack_tensor_payload(
    meta: Dict,
    arrays: Dict[str, np.ndarray],
    *,
    compression: str,
    wire_dtype: str,
) -> bytes:
    if compression not in COMPRESSIONS:
        raise ValueError(
            f"compression must be one of {COMPRESSIONS}, got {compression!r}"
        )
    meta = dict(meta)
    meta["wire_dtype"] = wire_dtype
    meta_bytes = encode_json(meta)
    compress = compression == "zlib"
    blob = pack_state(arrays, dtype=wire_dtype, compress=compress)
    flags = _FLAG_ZLIB if compress else 0
    return (
        bytes([flags]) + _META_LEN.pack(len(meta_bytes)) + meta_bytes + blob
    )


def _unpack_tensor_payload(payload: bytes) -> Tuple[Dict, Dict[str, np.ndarray]]:
    if len(payload) < 1 + _META_LEN.size:
        raise ProtocolError(
            f"tensor payload of {len(payload)} bytes is shorter than its "
            "fixed preamble"
        )
    flags = payload[0]
    if flags & ~_FLAG_ZLIB:
        raise ProtocolError(f"tensor payload sets unknown flags {flags:#04x}")
    (meta_len,) = _META_LEN.unpack_from(payload, 1)
    blob_start = 1 + _META_LEN.size + meta_len
    if len(payload) < blob_start:
        raise ProtocolError(
            f"tensor payload advertises a {meta_len}-byte meta header but "
            f"only {len(payload) - 1 - _META_LEN.size} bytes follow"
        )
    meta = decode_json(payload[1 + _META_LEN.size : blob_start])
    try:
        arrays = unpack_state(
            payload[blob_start:], compressed=bool(flags & _FLAG_ZLIB)
        )
    except ValueError as exc:  # corrupt zlib stream or packed blob
        raise ProtocolError(f"corrupt tensor blob: {exc}") from exc
    return meta, arrays


def _require(meta: Dict, *keys: str) -> None:
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ProtocolError(
            f"tensor payload meta is missing key(s): {', '.join(missing)}"
        )


def encode_task(
    task: LocalStepTask,
    seq: int,
    *,
    compression: str = "none",
    wire_dtype: str = "float64",
) -> bytes:
    """A :class:`LocalStepTask` as a tensor payload (``seq`` matches the
    reply to the request on a pipelined connection)."""
    meta = {
        "seq": seq,
        "participant_id": task.participant_id,
        "round_index": task.round_index,
        "batch_seed": task.batch_seed,
        "mask_normal": list(task.mask.normal),
        "mask_reduce": list(task.mask.reduce),
    }
    # Delta-dispatch metadata; absent only on hand-built tasks.
    if task.state_versions is not None:
        meta["state_versions"] = {
            name: int(task.state_versions[name]) for name in task.state
        }
    if task.state_refs:
        meta["state_refs"] = {
            name: int(version) for name, version in task.state_refs.items()
        }
    # The trace context rides only when the run is traced.
    if task.trace is not None:
        meta["trace"] = task.trace.to_wire()
    return _pack_tensor_payload(
        meta, task.state, compression=compression, wire_dtype=wire_dtype
    )


def decode_task(payload: bytes) -> Tuple[LocalStepTask, int]:
    meta, state = _unpack_tensor_payload(payload)
    _require(
        meta,
        "seq",
        "participant_id",
        "round_index",
        "batch_seed",
        "mask_normal",
        "mask_reduce",
    )
    try:
        mask = ArchitectureMask(
            tuple(int(i) for i in meta["mask_normal"]),
            tuple(int(i) for i in meta["mask_reduce"]),
        )
        versions = meta.get("state_versions")
        refs = meta.get("state_refs")
        trace_wire = meta.get("trace")
        task = LocalStepTask(
            participant_id=int(meta["participant_id"]),
            round_index=int(meta["round_index"]),
            mask=mask,
            state=state,
            batch_seed=int(meta["batch_seed"]),
            state_versions=(
                None
                if versions is None
                else {str(k): int(v) for k, v in versions.items()}
            ),
            state_refs=(
                None
                if refs is None
                else {str(k): int(v) for k, v in refs.items()}
            ),
            trace=(
                None if trace_wire is None else TraceContext.from_wire(trace_wire)
            ),
        )
        seq = int(meta["seq"])
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ProtocolError(f"malformed task meta: {exc}") from exc
    return task, seq


def encode_update(
    update: ParticipantUpdate,
    seq: int,
    *,
    compression: str = "none",
    wire_dtype: str = "float64",
) -> bytes:
    """A :class:`ParticipantUpdate` as a tensor payload.

    Gradients and buffers share one array blob under ``g:``/``b:`` key
    prefixes; scalar fields ride in the JSON meta (exact round-trip).
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, grad in update.gradients.items():
        arrays[f"g:{name}"] = grad
    for name, value in update.buffers.items():
        arrays[f"b:{name}"] = value
    meta = {
        "seq": seq,
        "participant_id": update.participant_id,
        "reward": update.reward,
        "num_samples": update.num_samples,
        "compute_time_s": update.compute_time_s,
    }
    # Worker span payload piggybacks in the JSON meta only when the task
    # carried a trace context.
    if update.spans is not None:
        meta["spans"] = update.spans
    return _pack_tensor_payload(
        meta, arrays, compression=compression, wire_dtype=wire_dtype
    )


def decode_update(payload: bytes) -> Tuple[ParticipantUpdate, int]:
    meta, arrays = _unpack_tensor_payload(payload)
    _require(meta, "seq", "participant_id", "reward", "num_samples", "compute_time_s")
    gradients: Dict[str, np.ndarray] = {}
    buffers: Dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        if name.startswith("g:"):
            gradients[name[2:]] = value
        elif name.startswith("b:"):
            buffers[name[2:]] = value
        else:
            raise ProtocolError(
                f"update blob carries array {name!r} outside the g:/b: namespaces"
            )
    try:
        update = ParticipantUpdate(
            participant_id=int(meta["participant_id"]),
            gradients=gradients,
            reward=float(meta["reward"]),
            num_samples=int(meta["num_samples"]),
            compute_time_s=float(meta["compute_time_s"]),
            buffers=buffers,
            spans=meta.get("spans"),
        )
        seq = int(meta["seq"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed update meta: {exc}") from exc
    return update, seq
