"""Decoder fuzz for the packed state layout, on the wire and on disk,
and for the wire's JSON control payloads.

The one per-entry codec (:func:`repro.nn.serialize.encode_entries` /
:func:`decode_entries`) carries task and update blobs and every array
row of a checkpoint.  The contract under test:

* any numeric array dict round-trips with dtype, shape and bytes kept —
  float64/float32/int64/int8, 0-d and empty shapes, non-ASCII names —
  and a float64 dict round-trips through ``pack_state``/``unpack_state``;
* whatever bytes a decoder is handed (every truncation, random bit
  flips, an ``|O`` dtype, a dims field of 2**32-1), ``unpack_state``,
  ``codec.decode_update`` / ``decode_task`` and ``checkpoint._read``
  either decode or raise ``ValueError`` — never another exception, never
  a hang;
* the same holds for ``codec.decode_json``, ``decode_hello`` and
  ``decode_error_info`` under truncation and bit flips, and each refuses
  JSON that is not an object, nested too deep, or carries a field of the
  wrong type (a ``seq`` of ``null``, a ``missing`` of ``-1``, …);
* an update's worker ``spans`` round-trip, and a span payload of the
  wrong shape (not an object, a non-numeric ``total_s``, a row that is
  not ``[name, start, duration]``, a bad op row) is refused;
* a checkpoint that says ``format_version: 2`` is refused with the
  "re-create" message.
"""

import json
import random
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import checkpoint
from repro.federated.participant import LocalStepTask, ParticipantUpdate
from repro.nn.serialize import decode_entries, encode_entries, pack_state, unpack_state
from repro.search_space import ArchitectureMask
from repro.transport import codec

DTYPES = ("<f8", "<f4", "<i8", "|i1")

names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=12
)
arrays = st.sampled_from(DTYPES).flatmap(
    lambda dtype: hnp.arrays(
        np.dtype(dtype),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    )
)
states = st.dictionaries(names, arrays, max_size=5)


def blob(state) -> bytes:
    return b"".join(encode_entries(state))


def assert_same(got, want):
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


def header(name: bytes, dtype: bytes, dims) -> bytes:
    return (
        struct.pack(">H", len(name)) + name + bytes([len(dtype)]) + dtype
        + bytes([len(dims)]) + b"".join(struct.pack(">I", d) for d in dims)
    )


SAMPLE = {
    "w": np.arange(6, dtype="<f8").reshape(2, 3),
    "é/β": np.array(7, dtype="<i8"),
    "empty": np.zeros((0, 2), dtype="<f4"),
    "bytes": np.arange(5, dtype="|i1"),
}


# ----------------------------------------------------------------------
# The decoders, each fed arbitrary bytes
# ----------------------------------------------------------------------
def _wire_payload(encode, obj) -> tuple:
    """An encoded message and the offset where its array blob starts."""
    payload = encode(obj, 7)
    (meta_len,) = struct.unpack_from(">I", payload, 1)
    return payload, 5 + meta_len


UPDATE = ParticipantUpdate(
    participant_id=1,
    gradients={"conv.w": SAMPLE["w"]},
    reward=0.5,
    num_samples=8,
    compute_time_s=0.25,
    buffers={"bn.mean": np.ones(3)},
)
SPANS = {
    "total_s": 0.012,
    "spans": [["build", 0.0, 0.004], ["forward", 0.004, 0.005]],
    "ops": [["Conv2d", "8x4x8x8", 3, 0.002]],
}
TRACED_UPDATE = ParticipantUpdate(
    participant_id=3,
    gradients={"conv.w": SAMPLE["w"]},
    reward=0.25,
    num_samples=8,
    compute_time_s=0.5,
    spans=SPANS,
)
TASK = LocalStepTask(
    participant_id=2,
    round_index=4,
    mask=ArchitectureMask((0, 1), (2, 3)),
    state={"conv.w": SAMPLE["w"], "bn.mean": np.ones(3)},
    batch_seed=9,
)


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def checkpoint_bytes(ckpt_dir, members) -> bytes:
    """A format-3 file holding ``members``; ``population.bin`` deflated."""
    path = ckpt_dir / "valid.ckpt"
    contents = {"format_version": checkpoint._FORMAT_VERSION, **members, "extra": {}}
    checkpoint._write(path, contents, {"population.bin"})
    return path.read_bytes()


def read_file(ckpt_dir, data: bytes):
    path = ckpt_dir / "fuzzed.ckpt"
    path.write_bytes(data)
    return checkpoint._read(path, members=True)


def decoders(ckpt_dir):
    """Name -> (decode(bytes), a valid input, where its packed bytes start)."""
    update, update_at = _wire_payload(codec.encode_update, UPDATE)
    task, task_at = _wire_payload(codec.encode_task, TASK)
    members = {"theta.bin": SAMPLE, "population.bin": {"state": np.zeros(64, "|i1")}}
    return {
        "unpack_state": (unpack_state, pack_state(SAMPLE, dtype="float64"), 0),
        "unpack_state/zlib": (
            lambda data: unpack_state(data, compressed=True),
            pack_state(SAMPLE, dtype="float64", compress=True),
            0,
        ),
        "decode_entries": (decode_entries, blob(SAMPLE), 0),
        "decode_update": (codec.decode_update, update, update_at),
        "decode_update/spans": (codec.decode_update, *_wire_payload(codec.encode_update, TRACED_UPDATE)),
        "decode_task": (codec.decode_task, task, task_at),
        "decode_json": (codec.decode_json, codec.encode_json({"a": [1, 2.5]}), 0),
        "decode_hello": (codec.decode_hello, codec.encode_hello("zlib", "float32"), 0),
        "decode_error_info": (
            codec.decode_error_info,
            codec.encode_error(7, "boom", code="cache_miss", missing=3),
            0,
        ),
        "checkpoint._read": (
            lambda data: read_file(ckpt_dir, data),
            checkpoint_bytes(ckpt_dir, members),
            0,
        ),
    }


DECODERS = (
    "unpack_state",
    "unpack_state/zlib",
    "decode_entries",
    "decode_update",
    "decode_update/spans",
    "decode_task",
    "decode_json",
    "decode_hello",
    "decode_error_info",
    "checkpoint._read",
)


def outcome(decode, data: bytes) -> str:
    """Decode ``data``: any exception but ``ValueError`` fails the test."""
    try:
        decode(data)
    except ValueError:
        return "refused"
    return "decoded"


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(state=states)
def test_entries_round_trip_with_dtype_shape_and_bytes_kept(state):
    assert_same(decode_entries(blob(state)), state)


@settings(max_examples=20, deadline=None)
@given(
    state=st.dictionaries(
        names, hnp.arrays("<f8", hnp.array_shapes(min_dims=1, min_side=0)), max_size=4
    )
)
def test_float64_state_round_trips_through_the_wire_codec(state):
    assert_same(unpack_state(pack_state(state, dtype="float64")), state)


@settings(max_examples=20, deadline=None)
@given(state=states)
def test_checkpoint_rows_round_trip_through_the_file(ckpt_dir, state):
    data = checkpoint_bytes(ckpt_dir, {"theta.bin": state, "population.bin": state})
    contents = read_file(ckpt_dir, data)
    assert_same(contents["theta.bin"], state)
    assert_same(contents["population.bin"], state)


def test_non_numeric_arrays_are_refused_on_both_sides():
    with pytest.raises(ValueError, match="non-numeric"):
        blob({"x": np.array(["a"])})
    with pytest.raises(ValueError, match="non-numeric"):
        blob({"x": np.array([None], dtype=object)})
    with pytest.raises(ValueError, match="non-numeric"):
        decode_entries(header(b"x", b"|O", [1]) + bytes(8))


# ----------------------------------------------------------------------
# Malformed input: decoded or ValueError, nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", DECODERS)
def test_every_truncation_is_refused_or_a_shorter_valid_input(ckpt_dir, name):
    decode, data, _ = decoders(ckpt_dir)[name]
    assert outcome(decode, data) == "decoded"
    for end in range(len(data)):
        outcome(decode, data[:end])


def test_a_truncated_entry_list_decodes_only_at_entry_boundaries():
    data = blob(SAMPLE)
    boundaries = {0}
    for count in range(1, len(SAMPLE) + 1):
        boundaries.add(len(blob(dict(list(SAMPLE.items())[:count]))))
    for end in range(len(data) + 1):
        expected = "decoded" if end in boundaries else "refused"
        assert outcome(decode_entries, data[:end]) == expected, end


@pytest.mark.parametrize("name", DECODERS)
@settings(max_examples=40, deadline=None)
@given(flips=st.lists(st.integers(0, 2**31), min_size=1, max_size=4))
def test_random_bit_flips_are_decoded_or_refused(ckpt_dir, name, flips):
    decode, data, start = decoders(ckpt_dir)[name]
    damaged = bytearray(data)
    for flip in flips:
        bit = flip % (8 * (len(data) - start))
        damaged[start + bit // 8] ^= 1 << (bit % 8)
    outcome(decode, bytes(damaged))


def test_a_seeded_sweep_of_damaged_checkpoint_files_is_read_or_refused(ckpt_dir):
    """Container damage the bit-flip property rarely reaches: flags that
    mark a member encrypted, offsets that seek before the file, sizes
    that run past it.  2000 seeded copies, each with 1-6 damaged bytes."""
    decode, data, _ = decoders(ckpt_dir)["checkpoint._read"]
    rng = random.Random(0)
    for _ in range(2000):
        damaged = bytearray(data)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(data))
            if rng.random() < 0.3:
                damaged[pos] = rng.randrange(256)
            else:
                damaged[pos] ^= 1 << rng.randrange(8)
        outcome(decode, bytes(damaged))


@pytest.mark.parametrize(
    "bad",
    [
        header(b"x", b"|O", [1]) + bytes(8),
        header(b"x", b"<f8", [2**32 - 1]),
        header(b"x", b"<f8", [2**32 - 1] * 2) + bytes(64),
        header(b"x", b"<f8", [2**32 - 1] * 3) + bytes(64),
        header(b"x", b"<f8", [0, 2**32 - 1]) + header(b"y", b"<f8", [2**32 - 1]),
        header(b"x", b"(2,)<f8", [1]) + bytes(16),
        header(b"x", b"<M8[s]", [1]) + bytes(8),
        header(b"x", b"no-such-dtype", [1]) + bytes(8),
        header(b"\xff\xfe", b"<f8", [1]) + bytes(8),
        header(b"x", b"<f8", [1]) + bytes(8) + b"\x00",
    ],
    ids=[
        "object",
        "dims-2^32-1",
        "two-dims-2^32-1",
        "three-dims-2^32-1",
        "empty-then-huge",
        "subarray",
        "datetime",
        "unknown",
        "bad-utf8-name",
        "trailing-byte",
    ],
)
def test_crafted_entries_are_refused_by_every_decoder(ckpt_dir, bad):
    assert outcome(decode_entries, bad) == "refused"
    assert outcome(unpack_state, bad) == "refused"
    unpack_zlib = lambda data: unpack_state(data, compressed=True)  # noqa: E731
    assert outcome(unpack_zlib, zlib.compress(bad)) == "refused"
    for name in ("decode_update", "decode_task"):
        _, data, start = decoders(ckpt_dir)[name]
        assert outcome(getattr(codec, name), data[:start] + bad) == "refused"
    path = ckpt_dir / "crafted.ckpt"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("theta.bin", bad)
        archive.writestr("meta.json", json.dumps({"format_version": 3}))
    with pytest.raises(ValueError, match="not a readable checkpoint"):
        checkpoint._read(path, members=True)


JSON_DECODERS = (codec.decode_json, codec.decode_hello, codec.decode_error_info)


@pytest.mark.parametrize(
    "payload",
    [b"[]", b"null", b"7", b'"text"', b"[" * 100_000, b'{"seq": ' + b"1" * 5000 + b"}"],
    ids=["array", "null", "number", "string", "nested-too-deep", "huge-int"],
)
def test_json_that_is_not_a_small_object_is_refused(payload):
    for decode in JSON_DECODERS:
        assert outcome(decode, payload) == "refused", decode.__name__


HELLO = {"version": codec.PROTOCOL_VERSION, "compression": "none", "wire_dtype": "float64"}
ERROR = {"seq": 3, "error": "boom", "code": "cache_miss", "missing": 2}


def wrong_fields():
    """(decoder, valid object, field, a value that field must refuse)."""
    not_str, not_int = (None, True, 1.5, 5, [], {}), (None, True, 1.5, "1", [], {})
    hello_fields = {
        "version": not_int + (1,),
        "compression": not_str + ("gzip",),
        "wire_dtype": not_str + ("float8",),
    }
    error_fields = {
        "seq": not_int, "error": not_str, "code": not_str, "missing": not_int + (-1,)
    }
    cases = {
        codec.decode_hello: (HELLO, hello_fields),
        codec.decode_error_info: (ERROR, error_fields),
    }
    return [
        pytest.param(decode, valid, field, value, id=f"{decode.__name__}-{field}-{value!r}")
        for decode, (valid, fields) in cases.items()
        for field, values in fields.items()
        for value in values
    ]


@pytest.mark.parametrize("decode,valid,field,value", wrong_fields())
def test_a_field_of_the_wrong_type_is_refused(decode, valid, field, value):
    assert outcome(decode, codec.encode_json(valid)) == "decoded"
    assert outcome(decode, codec.encode_json({**valid, field: value})) == "refused"


def with_meta(payload: bytes, **changes) -> bytes:
    """A tensor payload with fields of its JSON meta replaced."""
    (meta_len,) = struct.unpack_from(">I", payload, 1)
    meta = codec.encode_json({**json.loads(payload[5 : 5 + meta_len]), **changes})
    return payload[:1] + struct.pack(">I", len(meta)) + meta + payload[5 + meta_len :]


@pytest.mark.parametrize(
    "encode,decode,message",
    [
        (codec.encode_update, codec.decode_update, UPDATE),
        (codec.encode_task, codec.decode_task, TASK),
    ],
    ids=["decode_update", "decode_task"],
)
@pytest.mark.parametrize(
    "changes",
    [{"seq": None}, {"seq": [7]}, {"participant_id": float("inf")}],
    ids=repr,
)
def test_tensor_meta_with_a_field_of_the_wrong_type_is_refused(
    encode, decode, message, changes
):
    payload = encode(message, 7)
    assert outcome(decode, payload) == "decoded"
    assert outcome(decode, with_meta(payload, **changes)) == "refused"


def test_a_traced_update_round_trips_its_spans():
    update, seq = codec.decode_update(codec.encode_update(TRACED_UPDATE, 7))
    assert seq == 7 and update.spans == SPANS


@pytest.mark.parametrize(
    "spans",
    [
        "spans",
        [SPANS],
        {},
        {"spans": []},
        {"total_s": "0.1", "spans": []},
        {"total_s": True, "spans": []},
        {"total_s": float("nan"), "spans": []},
        {"total_s": 0.1},
        {"total_s": 0.1, "spans": {"build": 0.1}},
        {"total_s": 0.1, "spans": ["build"]},
        {"total_s": 0.1, "spans": [["build", 0.0]]},
        {"total_s": 0.1, "spans": [["build", 0.0, 0.1, 0.2]]},
        {"total_s": 0.1, "spans": [[7, 0.0, 0.1]]},
        {"total_s": 0.1, "spans": [["build", "0", 0.1]]},
        {"total_s": 0.1, "spans": [["build", 0.0, None]]},
        {"total_s": 0.1, "spans": [["build", 0.0, float("inf")]]},
        {"total_s": 0.1, "spans": [], "ops": {"Conv2d": 1}},
        {"total_s": 0.1, "spans": [], "ops": [["Conv2d", "8x4", 3]]},
        {"total_s": 0.1, "spans": [], "ops": [["Conv2d", "8x4", 1.5, 0.1]]},
        {"total_s": 0.1, "spans": [], "ops": [["Conv2d", [8, 4], 3, 0.1]]},
    ],
    ids=repr,
)
def test_a_span_payload_of_the_wrong_shape_is_refused(spans):
    """``spans`` must be an object with a numeric ``total_s``, a list of
    ``[str, number, number]`` rows and, if present, a list of ``[str,
    str, int, number]`` op rows: the server's span merge reads it as
    such."""
    payload = codec.encode_update(TRACED_UPDATE, 7)
    assert outcome(codec.decode_update, payload) == "decoded"
    assert outcome(codec.decode_update, with_meta(payload, spans=spans)) == "refused"


def test_error_frame_fields_are_required_or_typed_when_present():
    assert codec.decode_error_info(codec.encode_error(-1, "no spec")) == {
        "seq": -1,
        "error": "no spec",
    }
    for field in ("seq", "error"):
        partial = {k: v for k, v in ERROR.items() if k != field}
        assert outcome(codec.decode_error_info, codec.encode_json(partial)) == "refused"


def test_a_format_2_checkpoint_is_refused_with_the_re_create_message(ckpt_dir):
    path = ckpt_dir / "v2.ckpt"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("theta.npz", b"not decoded")
        archive.writestr("meta.json", json.dumps({"format_version": 2, "extra": {}}))
    for members in (False, True):
        with pytest.raises(ValueError, match="unsupported checkpoint version 2.*re-create"):
            checkpoint._read(path, members=members)
