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
* **The init payload** (participant registration): the same
  ``flags | meta_len | meta_json | blob`` layout, never compressed.
  The meta holds the :class:`~repro.search_space.SupernetConfig`
  fields, each spec's scalars and (population mode) the
  :class:`~repro.population.PopulationContext` scalars; the blob holds
  the shards' and the train set's ``images`` / ``labels`` in the
  :func:`repro.nn.serialize.encode_entries` layout, each dtype kept and
  never cast to the wire precision.  The decoder rebuilds every object
  through its constructor, so the constructors' checks run on it.

Every decoder raises :class:`~repro.transport.protocol.ProtocolError`
on malformed input so transport read loops can treat codec failures and
framing failures uniformly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data import ArrayDataset
from repro.federated.participant import (
    DeviceProfile,
    LocalStepTask,
    ParticipantSpec,
    ParticipantUpdate,
)
from repro.nn.serialize import (
    WIRE_DTYPES,
    decode_entries,
    encode_entries,
    pack_state,
    unpack_state,
)
from repro.population import PopulationContext
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
# Tensor payloads (the codec the high-rate messages use)
# ----------------------------------------------------------------------
def _pack_payload(meta: Dict, *blob: bytes, flags: int = 0) -> bytes:
    """``flags | meta_len | meta_json | blob``: every tensor and init
    payload."""
    meta_bytes = encode_json(meta)
    return b"".join(
        (bytes([flags]), _META_LEN.pack(len(meta_bytes)), meta_bytes, *blob)
    )


def _unpack_payload(payload: bytes) -> Tuple[int, Dict, memoryview]:
    """Inverse of :func:`_pack_payload`: ``(flags, meta, blob)``."""
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
    return flags, meta, memoryview(payload)[blob_start:]


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
    compress = compression == "zlib"
    return _pack_payload(
        {**meta, "wire_dtype": wire_dtype},
        pack_state(arrays, dtype=wire_dtype, compress=compress),
        flags=_FLAG_ZLIB if compress else 0,
    )


def _unpack_tensor_payload(payload: bytes) -> Tuple[Dict, Dict[str, np.ndarray]]:
    flags, meta, blob = _unpack_payload(payload)
    try:
        arrays = unpack_state(blob, compressed=bool(flags & _FLAG_ZLIB))
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


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_str(value) -> bool:
    return isinstance(value, str)


#: Column checks of a worker span row ``[name, start, duration]`` and of
#: an op profile row ``[op, shape, count, total_s]``.
_SPAN_ROW = (_is_str, _is_number, _is_number)
_OP_ROW = (_is_str, _is_str, _is_int, _is_number)


def _rows_of(rows, columns) -> bool:
    return isinstance(rows, list) and all(
        isinstance(row, list)
        and len(row) == len(columns)
        and all(check(value) for check, value in zip(columns, row))
        for row in rows
    )


def _check_spans(spans) -> None:
    """A worker span payload (:meth:`SpanRecorder.payload`) is an object
    with a numeric ``total_s``, a list of span rows and, optionally, a
    list of op rows; anything else is a :class:`ProtocolError`, so it
    never reaches the server's span merge."""
    if not (
        isinstance(spans, dict)
        and _is_number(spans.get("total_s"))
        and _rows_of(spans.get("spans"), _SPAN_ROW)
        and _rows_of(spans.get("ops", []), _OP_ROW)
    ):
        raise ProtocolError(f"update carries a malformed span payload {spans!r:.80}")


def decode_update(payload: bytes) -> Tuple[ParticipantUpdate, int]:
    meta, arrays = _unpack_tensor_payload(payload)
    _require(meta, "seq", "participant_id", "reward", "num_samples", "compute_time_s")
    if meta.get("spans") is not None:
        _check_spans(meta["spans"])
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


# ----------------------------------------------------------------------
# Registration payload (specs + geometry + population context)
# ----------------------------------------------------------------------
def _is_object(value) -> bool:
    return isinstance(value, dict)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_str, value))


def _is_bool(value) -> bool:
    return isinstance(value, bool)


#: The checks of each init meta record, by key; a record carries exactly
#: these keys.  ``SupernetConfig``'s follow its field annotations.
_INIT_FIELDS = {"supernet_config": _is_object, "specs": _is_list}
_CONFIG_FIELDS = {
    field.name: {"int": _is_int, "bool": _is_bool, "str": _is_str}[field.type]
    for field in dataclasses.fields(SupernetConfig)
}
_SPEC_FIELDS = {
    "participant_id": _is_int,
    "batch_size": _is_int,
    "num_classes": _is_int,
    "device": _is_str,
    "seconds_per_param_sample": _is_number,
}
_POPULATION_FIELDS = {
    "base_seed": _is_int,
    "scheme": _is_str,
    "shard_size": _is_int,
    "alpha": _is_number,
    "batch_size": _is_int,
    "num_classes": _is_int,
    "device_mix": _is_str_list,
}


def encode_init(
    specs: Sequence[ParticipantSpec],
    supernet_config: SupernetConfig,
    population: Optional[PopulationContext] = None,
) -> bytes:
    """Registration payload: specs + geometry (which carries the compute
    dtype), plus (population mode) the context workers derive on-demand
    specs from.  Shard arrays travel as they are: uncompressed, every
    dtype kept, whatever wire precision the hello negotiated."""
    meta: Dict = {"supernet_config": dataclasses.asdict(supernet_config), "specs": []}
    arrays: Dict[str, np.ndarray] = {}
    for index, spec in enumerate(specs):
        meta["specs"].append(
            {
                "participant_id": int(spec.participant_id),
                "batch_size": int(spec.batch_size),
                "num_classes": int(spec.dataset.num_classes),
                "device": spec.device.name,
                "seconds_per_param_sample": float(spec.device.seconds_per_param_sample),
            }
        )
        arrays[f"specs/{index}/images"] = spec.dataset.images
        arrays[f"specs/{index}/labels"] = spec.dataset.labels
    if population is not None:
        meta["population"] = {
            "base_seed": int(population.base_seed),
            "scheme": population.scheme,
            "shard_size": int(population.shard_size),
            "alpha": float(population.alpha),
            "batch_size": int(population.batch_size),
            "num_classes": int(population.train_set.num_classes),
            "device_mix": list(population.device_mix),
        }
        arrays["population/images"] = population.train_set.images
        arrays["population/labels"] = population.train_set.labels
    return _pack_payload(meta, *encode_entries(arrays))


def _record(obj, fields: Dict[str, Callable[[object], bool]], what: str) -> Dict:
    """``obj`` as an init meta record: exactly ``fields``' keys, each
    value passing its check."""
    if not isinstance(obj, dict) or obj.keys() != fields.keys():
        raise ProtocolError(f"init {what} must carry exactly {sorted(fields)}: {obj!r:.80}")
    for key, check in fields.items():
        if not check(obj[key]):
            raise ProtocolError(f"init {what} has a bad {key} {obj[key]!r:.40}")
    return obj


def _build(cls, *args, **kwargs):
    """``cls(*args, **kwargs)`` with its ``__post_init__`` checks; a
    refusal is a :class:`ProtocolError`."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"init payload has a bad {cls.__name__}: {exc}") from exc


def _dataset(arrays: Dict[str, np.ndarray], prefix: str, num_classes: int) -> ArrayDataset:
    """The dataset whose arrays sit under ``prefix`` (removed from
    ``arrays``): 4-D float images, 1-D integer labels."""
    images = arrays.pop(f"{prefix}/images", None)
    labels = arrays.pop(f"{prefix}/labels", None)
    if images is None or labels is None:
        raise ProtocolError(f"init blob lacks the images or labels of {prefix}")
    if images.ndim != 4 or images.dtype.kind != "f":
        raise ProtocolError(
            f"init {prefix} images are {images.dtype} {images.shape}, not 4-D float"
        )
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ProtocolError(
            f"init {prefix} labels are {labels.dtype} {labels.shape}, not 1-D integer"
        )
    return _build(ArrayDataset, images, labels, num_classes)


def decode_init(
    payload: bytes,
) -> Tuple[List[ParticipantSpec], SupernetConfig, Optional[PopulationContext]]:
    """Inverse of :func:`encode_init`; an absent population reads as
    population off.  Anything but a well-formed registration is a
    :class:`ProtocolError`."""
    flags, meta, blob = _unpack_payload(payload)
    if flags:
        raise ProtocolError(f"init payload sets flags {flags:#04x}; it is never compressed")
    try:
        arrays = decode_entries(blob)
    except ValueError as exc:
        raise ProtocolError(f"corrupt init blob: {exc}") from exc
    top = dict(_INIT_FIELDS, population=_is_object) if "population" in meta else _INIT_FIELDS
    _record(meta, top, "meta")
    config = _build(
        SupernetConfig, **_record(meta["supernet_config"], _CONFIG_FIELDS, "supernet config")
    )
    specs = []
    for index, obj in enumerate(meta["specs"]):
        record = _record(obj, _SPEC_FIELDS, "spec")
        device = _build(DeviceProfile, record["device"], record["seconds_per_param_sample"])
        dataset = _dataset(arrays, f"specs/{index}", record["num_classes"])
        pid, batch_size = record["participant_id"], record["batch_size"]
        specs.append(_build(ParticipantSpec, pid, dataset, batch_size, device))
    population = None
    if "population" in meta:
        scalars = {**_record(meta["population"], _POPULATION_FIELDS, "population")}
        train_set = _dataset(arrays, "population", scalars.pop("num_classes"))
        scalars["device_mix"] = tuple(scalars["device_mix"])
        population = _build(PopulationContext, train_set=train_set, **scalars)
    if arrays:
        raise ProtocolError(f"init blob carries unexpected arrays {sorted(arrays)!r:.80}")
    return specs, config, population
