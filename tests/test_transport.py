"""Tests for the networked participant runtime (:mod:`repro.transport`).

Four layers under test:

* the frame codec — golden bytes pin the wire format; fuzzed truncation,
  bit flips, and oversized lengths must raise :class:`ProtocolError`
  cleanly (never hang a read loop);
* the message codecs — lossless float64 round-trips, lossy float16,
  zlib, and the exact :func:`payload_size_bytes` accounting;
* the worker daemon — an in-thread :class:`WorkerServer` speaking real
  sockets, surviving garbage connections;
* the :class:`SocketBackend` — bit-identity with the serial backend,
  retry/degradation when a worker dies mid-round, reconnect after a
  kill, and external-daemon mode.
"""

import dataclasses
import json
import os
import signal
import socket
import threading
import time
import zlib

import numpy as np
import pytest

from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.federated import (
    LocalStepTask,
    Participant,
    ParticipantSpec,
    SerialBackend,
    build_backend,
    run_local_step,
)
from repro.federated import compiled
from repro.nn import payload_size_bytes, state_size_bytes, tape
from repro.nn.serialize import pack_state, unpack_state
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import JsonlFileSink, Telemetry
from repro.telemetry.tracing import TraceContext
from repro.transport import (
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
    SocketBackend,
    WorkerServer,
    codec,
    decode_frame,
    encode_frame,
)

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def build_participants(num=3, seed=0):
    rng = np.random.default_rng(seed)
    train, _ = synth_cifar10(
        seed=0, train_per_class=12, test_per_class=2, image_size=8
    )
    shards = iid_partition(train, num, rng=rng)
    return [
        Participant(k, shard, batch_size=8, rng=np.random.default_rng(k))
        for k, shard in enumerate(shards)
    ]


def make_task(supernet, policy, participant_id=0, seed=7, round_index=0):
    mask = policy.sample_mask()
    return LocalStepTask(
        participant_id=participant_id,
        round_index=round_index,
        mask=mask,
        state=supernet.submodel_state(mask),
        batch_seed=seed,
    )


@pytest.fixture()
def worker_thread():
    """An in-process worker daemon on a real localhost socket."""
    server = WorkerServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.stop()
    thread.join(timeout=5)


def run_tasks_within(backend, tasks, timeout=60.0):
    """``backend.run_tasks(tasks)`` on a daemon thread, failing the test
    instead of hanging it when the round does not end in ``timeout``."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(backend.run_tasks(tasks)), daemon=True
    )
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"run_tasks did not return in {timeout:g}s"
    assert results, "run_tasks raised"
    return results[0]


def dial(server, timeout=10.0):
    sock = socket.create_connection((server.host, server.port), timeout=timeout)
    return FrameConnection(sock)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_golden_bytes(self):
        """Pin the wire format.  If this test breaks, the protocol
        changed: bump PROTOCOL_VERSION and update the golden bytes."""
        frame = encode_frame(MSG_HEARTBEAT, b"ping")
        golden = (
            b"FM"  # magic
            + bytes([2])  # protocol version
            + bytes([0x07])  # MSG_HEARTBEAT
            + (4).to_bytes(4, "big")  # payload length
            + zlib.crc32(b"ping").to_bytes(4, "big")
            + b"ping"
        )
        assert frame == golden
        assert len(frame) == HEADER_BYTES + 4
        assert MAGIC == b"FM" and PROTOCOL_VERSION == 2

    def test_round_trip(self):
        for payload in (b"", b"x", os.urandom(1000)):
            frame = encode_frame(MSG_ACK, payload)
            msg_type, decoded, consumed = decode_frame(frame + b"trailing")
            assert msg_type == MSG_ACK
            assert decoded == payload
            assert consumed == len(frame)

    def test_unknown_type_and_oversize_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_frame(0xEE, b"")
        # an oversized *advertised* length is a decode-side ProtocolError
        header = bytearray(encode_frame(MSG_ACK, b""))
        header[4:8] = (MAX_PAYLOAD_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(bytes(header))

    def test_truncation_always_raises(self):
        frame = encode_frame(MSG_TASK, b"some payload bytes")
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError, match="truncated"):
                decode_frame(frame[:cut])

    def test_bit_flips_always_raise_or_change_payload(self):
        """Flip every bit of a frame: decoding must either raise
        ProtocolError or (for flips inside the payload that collide...
        they can't: CRC covers the payload) — so: always raises, except
        flips that only touch the trailing-garbage region (none here)."""
        frame = encode_frame(MSG_HELLO, b"hello payload")
        for byte_index in range(len(frame)):
            for bit in range(8):
                corrupted = bytearray(frame)
                corrupted[byte_index] ^= 1 << bit
                corrupted = bytes(corrupted)
                if corrupted == frame:
                    continue
                try:
                    msg_type, payload, _ = decode_frame(corrupted)
                except ProtocolError:
                    continue
                # A flip of the msg_type byte can land on another valid
                # type with the same payload — CRC still holds then.
                assert payload == b"hello payload"
                assert msg_type != MSG_HELLO

    def test_fuzz_garbage_never_hangs(self):
        rng = np.random.default_rng(0)
        for size in (0, 1, HEADER_BYTES - 1, HEADER_BYTES, 64, 1024):
            blob = rng.bytes(size)
            try:
                decode_frame(blob)
            except ProtocolError:
                pass  # the only acceptable failure mode

    def test_wrong_version_rejected(self):
        frame = bytearray(encode_frame(MSG_ACK, b""))
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(frame))


# ----------------------------------------------------------------------
# Message codecs
# ----------------------------------------------------------------------
class TestMessageCodecs:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.supernet = Supernet(TINY, rng=rng)
        self.policy = ArchitecturePolicy(TINY.num_edges, rng=rng)

    def test_hello_round_trip_and_validation(self):
        hello = codec.decode_hello(codec.encode_hello("zlib", "float32"))
        assert hello["compression"] == "zlib"
        assert hello["wire_dtype"] == "float32"
        with pytest.raises(ValueError):
            codec.encode_hello("lz4")
        with pytest.raises(ProtocolError):
            codec.decode_hello(codec.encode_json({"version": 99}))
        with pytest.raises(ProtocolError):
            codec.decode_json(b"\xff\xfe not json")

    def test_task_round_trip_is_lossless_at_float64(self):
        task = make_task(self.supernet, self.policy, participant_id=2, seed=5)
        for compression in ("none", "zlib"):
            payload = codec.encode_task(
                task, 42, compression=compression, wire_dtype="float64"
            )
            decoded, seq = codec.decode_task(payload)
            assert seq == 42
            assert decoded.participant_id == 2
            assert decoded.batch_seed == 5
            assert decoded.mask == task.mask
            assert set(decoded.state) == set(task.state)
            for name in task.state:
                np.testing.assert_array_equal(
                    decoded.state[name], task.state[name], err_msg=name
                )

    def test_float16_wire_precision_is_lossy(self):
        task = make_task(self.supernet, self.policy)
        payload = codec.encode_task(task, 0, wire_dtype="float16")
        decoded, _ = codec.decode_task(payload)
        assert any(
            not np.array_equal(decoded.state[n], task.state[n])
            for n in task.state
        )
        # ...but close: it's a precision cut, not corruption.
        for name in task.state:
            np.testing.assert_allclose(
                decoded.state[name], task.state[name], atol=1e-2, rtol=1e-2
            )

    def test_update_round_trip_is_lossless_at_float64(self):
        participants = build_participants()
        task = make_task(self.supernet, self.policy, participant_id=0)
        update = run_local_step(task, participants[0].dataset, 8, TINY)
        payload = codec.encode_update(update, 7, wire_dtype="float64")
        decoded, seq = codec.decode_update(payload)
        assert seq == 7
        assert decoded.reward == update.reward  # JSON floats round-trip
        assert decoded.num_samples == update.num_samples
        assert set(decoded.gradients) == set(update.gradients)
        assert set(decoded.buffers) == set(update.buffers)
        for name in update.gradients:
            np.testing.assert_array_equal(
                decoded.gradients[name], update.gradients[name], err_msg=name
            )
        for name in update.buffers:
            np.testing.assert_array_equal(
                decoded.buffers[name], update.buffers[name], err_msg=name
            )

    def test_malformed_tensor_payloads_raise_protocol_error(self):
        task = make_task(self.supernet, self.policy)
        payload = codec.encode_task(task, 0)
        for bad in (
            b"",  # shorter than the preamble
            b"\x80" + payload[1:],  # unknown flags
            payload[: len(payload) // 2],  # truncated blob
            payload[:5] + b"{not json" + payload[5:],  # garbage meta
        ):
            with pytest.raises(ProtocolError):
                codec.decode_task(bad)
        # meta missing required keys
        with pytest.raises(ProtocolError, match="missing"):
            codec.decode_update(payload)  # task meta lacks update keys

    def test_init_round_trip_and_type_check(self):
        specs = [
            ParticipantSpec.from_participant(p) for p in build_participants()
        ]
        decoded_specs, config, population = codec.decode_init(
            codec.encode_init(specs, TINY)
        )
        assert [s.participant_id for s in decoded_specs] == [0, 1, 2]
        assert config == TINY
        assert population is None
        assert config.compute_dtype == "float64"
        with pytest.raises(ProtocolError):
            codec.decode_init(b"not a pickle")
        import pickle

        with pytest.raises(ProtocolError, match="unexpected object types"):
            codec.decode_init(
                pickle.dumps({"specs": ["nope"], "supernet_config": TINY})
            )


class TestPayloadSizes:
    def test_exact_vs_analytic(self):
        """The packed blob costs real bytes beyond the 4-bytes/scalar
        analytic model, and compression shrinks it."""
        rng = np.random.default_rng(3)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        state = supernet.submodel_state(policy.sample_mask())

        analytic = state_size_bytes(state)
        exact32 = payload_size_bytes(state, dtype="float32")
        exact64 = payload_size_bytes(state, dtype="float64")
        exact_z = payload_size_bytes(state, compressed=True, dtype="float64")

        assert exact32 > analytic  # container overhead is real
        assert exact64 > exact32  # double precision, double array bytes
        assert exact_z < exact64  # zlib helps
        # and the number is *exact*: it equals the bytes actually built
        assert exact64 == len(pack_state(state, dtype="float64"))
        assert exact_z == len(pack_state(state, dtype="float64", compress=True))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        state = supernet.submodel_state(policy.sample_mask())
        sizes = {payload_size_bytes(state, dtype="float64") for _ in range(3)}
        assert len(sizes) == 1

    def test_round_trip_through_bytes(self):
        state = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        blob = pack_state(state, dtype="float64", compress=True)
        back = unpack_state(blob, compressed=True)
        np.testing.assert_array_equal(back["w"], state["w"])
        with pytest.raises(ValueError):
            unpack_state(b"garbage", compressed=True)


# ----------------------------------------------------------------------
# Worker daemon (in-thread, real sockets)
# ----------------------------------------------------------------------
class TestWorkerServer:
    def register(self, conn, compression="none", wire_dtype="float64"):
        msg, payload = conn.request(
            MSG_HELLO, codec.encode_hello(compression, wire_dtype), timeout=10
        )
        assert msg == MSG_HELLO_ACK
        specs = [
            ParticipantSpec.from_participant(p) for p in build_participants()
        ]
        msg, _ = conn.request(
            MSG_INIT, codec.encode_init(specs, TINY), timeout=10
        )
        assert msg == MSG_ACK

    def test_hello_heartbeat_task(self, worker_thread):
        conn = dial(worker_thread)
        try:
            self.register(conn)
            msg, payload = conn.request(MSG_HEARTBEAT, b"tick", timeout=10)
            assert msg == MSG_HEARTBEAT_ACK and payload == b"tick"

            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
            task = make_task(supernet, policy, participant_id=1, seed=9)
            msg, payload = conn.request(
                MSG_TASK, codec.encode_task(task, 5), timeout=30
            )
            assert msg == MSG_UPDATE
            update, seq = codec.decode_update(payload)
            assert seq == 5 and update.participant_id == 1

            # bit-identical to the same step computed locally
            participants = build_participants()
            local = run_local_step(task, participants[1].dataset, 8, TINY)
            assert update.reward == local.reward
            for name in local.gradients:
                np.testing.assert_array_equal(
                    update.gradients[name], local.gradients[name], err_msg=name
                )
        finally:
            conn.close()

    def test_init_resets_the_step_cache(self):
        """A daemon forked from a server serves on the forking thread and
        inherits that thread's compiled models and the tape counters;
        registering must clear both.  The daemon serves on this thread,
        which stepped first, while a client thread registers."""
        rng = np.random.default_rng(0)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        run_local_step(make_task(supernet, policy), build_participants()[0].dataset, 8, TINY)
        assert vars(compiled._MODELS) and any(tape.stats().snapshot().values())
        server = WorkerServer(port=0, idle_timeout_s=10)
        errors = []

        def client():
            try:
                conn = dial(server)
                try:
                    self.register(conn)
                    conn.request(MSG_SHUTDOWN, b"", timeout=10)
                finally:
                    conn.close()
            except BaseException as exc:  # re-raised on the test thread
                errors.append(exc)

        thread = threading.Thread(target=client)
        thread.start()
        server.serve_forever()
        thread.join(timeout=10)
        assert not thread.is_alive() and not errors, errors
        assert not vars(compiled._MODELS)
        assert not any(tape.stats().snapshot().values())

    def test_garbage_connection_does_not_kill_daemon(self, worker_thread):
        # Connection 1: pure garbage → daemon drops it and survives.
        sock = socket.create_connection(
            (worker_thread.host, worker_thread.port), timeout=5
        )
        sock.sendall(b"\x00" * 64)
        sock.close()
        # Connection 2: a valid session still works.
        conn = dial(worker_thread)
        try:
            msg, _ = conn.request(
                MSG_HELLO, codec.encode_hello(), timeout=10
            )
            assert msg == MSG_HELLO_ACK
        finally:
            conn.close()

    def test_task_before_init_returns_error_frame(self, worker_thread):
        conn = dial(worker_thread)
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
            task = make_task(supernet, policy)
            msg, payload = conn.request(
                MSG_TASK, codec.encode_task(task, 1), timeout=10
            )
            assert msg == MSG_ERROR
            info = codec.decode_error_info(payload)
            assert info["seq"] == 1 and "no spec" in info["error"]
        finally:
            conn.close()

    def test_idle_timeout_exits(self):
        server = WorkerServer(port=0, idle_timeout_s=0.2)
        start = time.monotonic()
        assert server.serve_forever() == 0
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize("open_client", [False, True])
    def test_stop_returns_promptly(self, open_client):
        """stop() wakes a daemon blocked in accept, or in recv on a
        connection whose client is still open."""
        server = WorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = None
        if open_client:
            conn = dial(server)
            msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
            assert msg == MSG_HELLO_ACK
        try:
            start = time.monotonic()
            server.stop()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert time.monotonic() - start < 1.0
        finally:
            if conn is not None:
                conn.close()


# ----------------------------------------------------------------------
# SocketBackend end to end
# ----------------------------------------------------------------------
class TestSocketBackend:
    def run_round_tasks(self, backend, seed=0, round_index=0):
        rng = np.random.default_rng(seed)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        return [
            make_task(
                supernet, policy, participant_id=k, seed=seed + k,
                round_index=round_index,
            )
            for k in range(3)
        ]

    def test_bit_identical_to_serial(self):
        participants = build_participants()
        tasks = self.run_round_tasks(None, seed=4)
        serial = SerialBackend(participants, TINY)
        backend = SocketBackend(
            participants, TINY, num_workers=2, task_timeout_s=60.0
        )
        try:
            expected = serial.run_tasks(tasks)
            actual = backend.run_tasks(tasks)
        finally:
            backend.close()
        for a, b in zip(expected, actual):
            assert a.participant_id == b.participant_id
            assert a.ok and b.ok
            assert a.update.reward == b.update.reward
            for name in a.update.gradients:
                np.testing.assert_array_equal(
                    a.update.gradients[name],
                    b.update.gradients[name],
                    err_msg=name,
                )

    def test_round_byte_deltas_survive_a_replaced_connection(
        self, worker_thread, monkeypatch
    ):
        """A connection dropped and re-dialled mid-round keeps its bytes
        in the endpoint's totals, so ``transport.round`` deltas never go
        negative (they once summed only the live connections)."""
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{worker_thread.host}:{worker_thread.port}"],
            task_timeout_s=60.0,
            telemetry=telemetry,
        )
        real_drive = backend._drive
        replacements = []

        def replace_then_drive(state, endpoint):
            # The round's byte snapshot is taken; its one worker's
            # dispatch thread has not sent anything yet.
            before = endpoint.traffic()
            backend._mark_lost(endpoint, "replaced by the test")
            assert backend._register(endpoint)
            assert endpoint.traffic()[0] > before[0]
            replacements.append(endpoint.conn)
            return real_drive(state, endpoint)

        try:
            backend.run_tasks(self.run_round_tasks(None, seed=5))
            monkeypatch.setattr(backend, "_drive", replace_then_drive)
            results = backend.run_tasks(self.run_round_tasks(None, seed=6, round_index=1))
        finally:
            backend.close()
        assert all(r.ok for r in results)
        rounds = [e for e in telemetry.events() if e["event"] == "transport.round"]
        assert len(rounds) == 2
        for event in rounds:
            assert event["bytes_sent"] > 0 and event["bytes_received"] > 0, event
        # All of the new connection's traffic happened in the second round.
        (conn,) = replacements
        assert rounds[1]["bytes_sent"] >= conn.bytes_sent
        assert rounds[1]["bytes_received"] >= conn.bytes_received

    def test_results_in_task_order_and_reusable_after_close(self):
        participants = build_participants()
        backend = SocketBackend(
            participants, TINY, num_workers=2, task_timeout_s=60.0
        )
        tasks = self.run_round_tasks(None, seed=1)
        try:
            first = backend.run_tasks(tasks)
            backend.close()  # lazily respawns on next use
            second = backend.run_tasks(tasks)
        finally:
            backend.close()
        assert [r.participant_id for r in first] == [0, 1, 2]
        assert all(r.ok for r in first) and all(r.ok for r in second)
        np.testing.assert_array_equal(
            first[0].update.gradients[next(iter(first[0].update.gradients))],
            second[0].update.gradients[next(iter(second[0].update.gradients))],
        )

    def test_malformed_worker_spans_fail_the_attempt_and_the_round_ends(
        self, monkeypatch
    ):
        """A worker that answers one traced task with a span payload of
        the wrong shape: the decoder refuses it as a protocol error, so
        that attempt fails.  It used to reach the span merge, raise there
        and kill its dispatch thread while the thread held the job, and
        the other thread waited for that job forever."""
        import repro.transport.worker as worker_module

        real = worker_module.run_worker_task

        def corrupting(task, *args, **kwargs):
            update, wall = real(task, *args, **kwargs)
            if task.participant_id == 0:
                update.spans = {"total_s": "soon", "spans": 3}
            return update, wall

        # Set before the workers fork, so they inherit it.
        monkeypatch.setattr(worker_module, "run_worker_task", corrupting)
        backend = SocketBackend(
            build_participants(), TINY, num_workers=2, telemetry=Telemetry()
        )
        trace = TraceContext(trace_id="t", parent_span_id=0, dispatch_ts=0.0)
        tasks = [
            dataclasses.replace(task, trace=trace)
            for task in self.run_round_tasks(None, seed=3)
        ]
        try:
            results = run_tasks_within(backend, tasks)
        finally:
            backend.close()
        assert not results[0].ok
        assert "malformed span payload" in results[0].error
        for result in results[1:]:
            if result.ok:
                assert result.update.spans["spans"]

    def test_an_attempt_that_raises_settles_as_its_failure(self, monkeypatch):
        """Any exception out of an attempt fails that attempt and the job
        is retried; the dispatch thread lives on and the round ends."""
        import repro.transport.backend as backend_module

        calls = []

        def raise_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("merge failed")

        monkeypatch.setattr(backend_module, "emit_task_trace", raise_once)
        backend = SocketBackend(
            build_participants(), TINY, num_workers=2, telemetry=Telemetry()
        )
        try:
            results = run_tasks_within(backend, self.run_round_tasks(None, seed=3))
        finally:
            backend.close()
        assert all(r.ok for r in results)
        assert sorted(r.attempts for r in results) == [1, 1, 2]

    def test_killed_worker_degrades_not_deadlocks(self):
        """ISSUE 4 acceptance: kill -9 one worker mid-round → the round
        completes (some tasks possibly degraded), the next round heals
        via respawn.  Bounded by task_timeout_s, so no deadlock."""
        telemetry = Telemetry()
        participants = build_participants()
        backend = SocketBackend(
            participants,
            TINY,
            num_workers=2,
            task_timeout_s=15.0,
            max_retries=1,
            telemetry=telemetry,
        )
        try:
            warm = backend.run_tasks(self.run_round_tasks(None, seed=2))
            assert all(r.ok for r in warm)

            victim = next(e for e in backend._endpoints if e.proc is not None)
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait(timeout=10)

            start = time.monotonic()
            results = backend.run_tasks(
                self.run_round_tasks(None, seed=3, round_index=1)
            )
            elapsed = time.monotonic() - start
            assert elapsed < 60  # bounded, not deadlocked
            assert len(results) == 3
            # With a surviving replica + 1 retry every task still lands.
            assert all(r.ok for r in results)

            # Round 3: the dead daemon was respawned and serves again.
            healed = backend.run_tasks(
                self.run_round_tasks(None, seed=4, round_index=2)
            )
            assert all(r.ok for r in healed)
            assert all(e.alive for e in backend._endpoints)
        finally:
            backend.close()
        events = {e["event"] for e in telemetry.events()}
        assert "transport.worker_respawned" in events or (
            "transport.worker_lost" in events
        )

    def test_external_workers_stay_running_after_close(self):
        server = WorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        participants = build_participants()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{server.host}:{server.port}"],
            task_timeout_s=60.0,
        )
        try:
            results = backend.run_tasks(self.run_round_tasks(None, seed=5))
            assert all(r.ok for r in results)
        finally:
            backend.close()
        # close() must NOT shut an external daemon down
        conn = dial(server)
        try:
            msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
            assert msg == MSG_HELLO_ACK
        finally:
            conn.close()
            server.stop()
            thread.join(timeout=5)

    def test_zlib_float64_still_bit_identical(self):
        participants = build_participants()
        tasks = self.run_round_tasks(None, seed=6)
        serial = SerialBackend(participants, TINY)
        backend = SocketBackend(
            participants,
            TINY,
            num_workers=1,
            task_timeout_s=60.0,
            compression="zlib",
            wire_dtype="float64",
        )
        try:
            expected = serial.run_tasks(tasks)
            actual = backend.run_tasks(tasks)
        finally:
            backend.close()
        for a, b in zip(expected, actual):
            assert a.update.reward == b.update.reward

    def test_wire_telemetry_emitted(self):
        telemetry = Telemetry()
        participants = build_participants()
        backend = SocketBackend(
            participants,
            TINY,
            num_workers=1,
            task_timeout_s=60.0,
            telemetry=telemetry,
        )
        try:
            backend.run_tasks(self.run_round_tasks(None, seed=7))
        finally:
            backend.close()
        snapshot = telemetry.metrics_snapshot()
        assert snapshot.get("transport.bytes_sent", {}).get("value", 0) > 0
        assert snapshot.get("transport.bytes_received", {}).get("value", 0) > 0
        assert "transport.task_rtt_s" in snapshot
        rounds = [
            e for e in telemetry.events() if e["event"] == "transport.round"
        ]
        assert rounds and rounds[0]["bytes_sent"] > 0
        assert rounds[0]["tasks"] == 3

    def test_validation(self):
        participants = build_participants()
        with pytest.raises(ValueError):
            SocketBackend(participants, TINY, task_timeout_s=0)
        with pytest.raises(ValueError):
            SocketBackend(participants, TINY, max_retries=-1)
        with pytest.raises(ValueError):
            SocketBackend(participants, TINY, compression="lz4")
        with pytest.raises(ValueError):
            SocketBackend(participants, TINY, wire_dtype="int8")
        with pytest.raises(ValueError):
            SocketBackend(participants, TINY, workers=["no-port"])

    def test_heartbeat_failure_counted_and_attributed(self, worker_thread):
        """Satellite: a failed heartbeat increments
        ``transport.heartbeat_failures`` and emits a per-worker
        ``transport.heartbeat_failed`` event naming the endpoint."""
        telemetry = Telemetry()
        participants = build_participants()
        address = f"{worker_thread.host}:{worker_thread.port}"
        backend = SocketBackend(
            participants,
            TINY,
            workers=[address],
            task_timeout_s=30.0,
            telemetry=telemetry,
        )
        try:
            live = backend._ensure_workers()
            assert len(live) == 1 and live[0].alive
            # Simulate a half-open TCP connection: the socket dies under
            # the endpoint without the backend noticing.  The next
            # heartbeat must fail, be counted, and be attributed.
            live[0].conn.close()
            backend._ensure_workers()
        finally:
            backend.close()
        snapshot = telemetry.metrics_snapshot()
        assert (
            snapshot.get("transport.heartbeat_failures", {}).get("value", 0)
            >= 1
        )
        failed = [
            e
            for e in telemetry.events()
            if e["event"] == "transport.heartbeat_failed"
        ]
        assert failed and failed[0]["worker"] == address
        assert failed[0]["error"]


# ----------------------------------------------------------------------
# Auto-spawned workers are forked from the server process
# ----------------------------------------------------------------------
class TestForkedWorkers:
    """What a worker forked from the server must not keep: its process
    slot after close(), the server's other connections, or the server's
    buffered file contents."""

    run_round_tasks = TestSocketBackend.run_round_tasks

    def kill_one(self, backend):
        """kill -9 one owned daemon and return its endpoint."""
        victim = backend._endpoints[0]
        os.kill(victim.proc.pid, signal.SIGKILL)
        victim.proc.wait(timeout=10)
        return victim

    @pytest.mark.parametrize("name", ["process", "socket"])
    def test_close_reaps_every_worker(self, name):
        backend = build_backend(name, build_participants(), TINY, num_workers=2)
        try:
            backend.run_tasks(self.run_round_tasks(None, seed=1))
            pids = [e.proc.pid for e in backend._endpoints]
            self.kill_one(backend)
            backend.run_tasks(self.run_round_tasks(None, seed=2, round_index=1))
            pids += [e.proc.pid for e in backend._endpoints]
        finally:
            backend.close()
        assert len(set(pids)) == 3  # two originals and the respawn
        for pid in pids:
            # Neither running nor a zombie: the pid is gone.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_survivor_sees_eof_after_a_respawn(self):
        """The respawned daemon was forked while the server held its
        connection to the surviving daemon.  Unless the child closed its
        copy, that connection outlives the server's close and the
        survivor (one connection at a time) never serves again."""
        backend = SocketBackend(build_participants(), TINY, num_workers=2)
        try:
            backend.run_tasks(self.run_round_tasks(None, seed=1))
            victim = self.kill_one(backend)
            results = backend.run_tasks(
                self.run_round_tasks(None, seed=2, round_index=1)
            )
            assert all(r.ok for r in results)
            (survivor,) = [e for e in backend._endpoints if e is not victim]
            assert victim.alive and survivor.alive
            # Close the server's descriptor without a TCP shutdown, as a
            # crashed server would: only the last close sends the FIN.
            survivor.conn._sock.close()
            conn = FrameConnection(
                socket.create_connection((survivor.host, survivor.port), timeout=10)
            )
            try:
                msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
            finally:
                conn.close()
            assert msg == MSG_HELLO_ACK
        finally:
            backend.close()

    def test_jsonl_lines_are_written_once(self, tmp_path):
        """Workers fork while the server's run log holds unflushed lines;
        they exit without flushing that copy."""
        path = tmp_path / "run.jsonl"
        sink = JsonlFileSink(path, flush_every_events=10**6, flush_every_bytes=10**9)
        telemetry = Telemetry(sink=sink)
        telemetry.emit("marker")
        backend = SocketBackend(
            build_participants(), TINY, num_workers=2, telemetry=telemetry
        )
        try:
            backend.run_tasks(self.run_round_tasks(None, seed=1))
            self.kill_one(backend)
            backend.run_tasks(self.run_round_tasks(None, seed=2, round_index=1))
            # Let every daemon run its whole exit path (close() would
            # SIGTERM it straight after the shutdown ack).
            for endpoint in backend._endpoints:
                endpoint.conn.request(MSG_SHUTDOWN, b"", timeout=10)
                assert endpoint.proc.wait(timeout=10) == 0
        finally:
            backend.close()
        sink.close()
        seqs = [json.loads(line)["seq"] for line in path.read_text().splitlines()]
        assert seqs == list(range(1, sink.total_emitted + 1))


# ----------------------------------------------------------------------
# Stream fuzzing: mid-payload disconnects and partial frames at EOF
# ----------------------------------------------------------------------
class TestStreamFuzzing:
    """Satellite: a peer that dies mid-frame must produce a prompt
    ProtocolError (or clean drop) on the other side — never a hang —
    whether the victim is the worker daemon or the client read loop."""

    def test_worker_survives_mid_payload_disconnect(self, worker_thread):
        frame = encode_frame(MSG_HEARTBEAT, b"x" * 256)
        # Cut inside the header, exactly at the header boundary, and
        # mid-payload: the daemon must drop each and keep serving.
        for cut in (HEADER_BYTES - 3, HEADER_BYTES, HEADER_BYTES + 100):
            sock = socket.create_connection(
                (worker_thread.host, worker_thread.port), timeout=5
            )
            sock.sendall(frame[:cut])
            sock.close()
        conn = dial(worker_thread)
        try:
            msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
            assert msg == MSG_HELLO_ACK
        finally:
            conn.close()

    def test_client_partial_frame_at_eof_raises_never_hangs(self):
        frame = encode_frame(MSG_UPDATE, b"payload bytes" * 16)
        for cut in (0, 1, HEADER_BYTES - 1, HEADER_BYTES, len(frame) - 1):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            client = socket.create_connection(
                listener.getsockname(), timeout=5
            )
            server_side, _ = listener.accept()
            server_side.sendall(frame[:cut])
            server_side.close()
            listener.close()
            conn = FrameConnection(client)
            start = time.monotonic()
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                conn.recv_frame(timeout=5)
            assert time.monotonic() - start < 5
            conn.close()

    def test_worker_partial_frame_then_eof_in_open_session(self, worker_thread):
        """EOF halfway through a frame *inside* an established session
        (hello already exchanged) drops the connection cleanly too."""
        conn = dial(worker_thread)
        msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
        assert msg == MSG_HELLO_ACK
        frame = encode_frame(MSG_HEARTBEAT, b"y" * 64)
        conn.send_bytes(frame[: HEADER_BYTES + 7])
        conn.close()
        # The daemon survives and accepts the next session.
        conn = dial(worker_thread)
        try:
            msg, _ = conn.request(MSG_HELLO, codec.encode_hello(), timeout=10)
            assert msg == MSG_HELLO_ACK
        finally:
            conn.close()
