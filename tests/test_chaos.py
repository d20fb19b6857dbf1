"""Chaos-hardened transport tests (ISSUE 8).

Four layers under test:

* the fault-plan model — JSON round-trips, validation, peer matching,
  seeded per-connection decision determinism;
* the circuit breaker state machine (with a fake clock);
* :class:`ChaosConnection` over real sockets — every fault kind
  produces its documented failure mode and never a hang;
* the soak matrix — a :class:`SocketBackend` round under every fault
  kind completes (degrading, not deadlocking), an *empty* plan is
  bit-identical to no plan at all across backends × delta × arena, and
  breaker/health activity is observable in ``repro trace``.
"""

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro import ExperimentConfig, FederatedModelSearch
from repro.controller import ArchitecturePolicy
from repro.faults.network import (
    NETWORK_FAULT_KINDS,
    ChaosEngine,
    NetworkFaultPlan,
    NetworkFaultSpec,
)
from repro.federated import Participant, SerialBackend
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import Telemetry
from repro.telemetry.trace import render_trace, summarize_trace
from repro.transport import resilience
from repro.transport import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HEARTBEAT_ACK,
    CircuitBreaker,
    FrameConnection,
    ProtocolError,
    SocketBackend,
    WorkerServer,
    codec,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def build_participants(num=3, seed=0):
    from repro.data import iid_partition, synth_cifar10

    rng = np.random.default_rng(seed)
    train, _ = synth_cifar10(
        seed=0, train_per_class=12, test_per_class=2, image_size=8
    )
    shards = iid_partition(train, num, rng=rng)
    return [
        Participant(k, shard, batch_size=8, rng=np.random.default_rng(k))
        for k, shard in enumerate(shards)
    ]


def make_tasks(num=3, seed=0, round_index=0):
    from repro.federated import LocalStepTask

    rng = np.random.default_rng(seed)
    supernet = Supernet(TINY, rng=rng)
    policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
    tasks = []
    for k in range(num):
        mask = policy.sample_mask()
        tasks.append(
            LocalStepTask(
                participant_id=k,
                round_index=round_index,
                mask=mask,
                state=supernet.submodel_state(mask),
                batch_seed=seed + k,
            )
        )
    return tasks


def start_worker():
    server = WorkerServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def tcp_pair():
    """A connected (client, server) FrameConnection pair over loopback.

    ``socket.socketpair()`` is AF_UNIX, which rejects TCP_NODELAY —
    chaos tests need real TCP semantics anyway.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname(), timeout=5)
    server_side, _ = listener.accept()
    listener.close()
    return FrameConnection(client), FrameConnection(server_side)


# ----------------------------------------------------------------------
# Fault plan model
# ----------------------------------------------------------------------
class TestNetworkFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = NetworkFaultPlan(
            seed=7,
            faults=(
                NetworkFaultSpec(kind="latency", probability=0.5,
                                 latency_s=0.05, jitter_s=0.01),
                NetworkFaultSpec(kind="drop", probability=0.02),
                NetworkFaultSpec(kind="blackhole", duration_s=2.0,
                                 peer="127.0.0.1", max_events=3),
                NetworkFaultSpec(kind="throttle", bytes_per_s=1024.0),
                NetworkFaultSpec(kind="refuse", probability=0.1),
                NetworkFaultSpec(kind="corrupt", probability=0.01),
            ),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert NetworkFaultPlan.load(path) == plan
        assert NetworkFaultPlan.from_json(plan.to_json()) == plan

    def test_empty_plan_is_inert(self):
        plan = NetworkFaultPlan(seed=1)
        assert plan.faults == ()
        assert not ChaosEngine(plan).active

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="unknown network fault kind"):
            NetworkFaultSpec(kind="gremlin")
        with pytest.raises(ValueError, match="probability"):
            NetworkFaultSpec(kind="drop", probability=1.5)
        with pytest.raises(ValueError, match="latency_s"):
            NetworkFaultSpec(kind="latency", latency_s=-1)
        with pytest.raises(ValueError, match="max_events"):
            NetworkFaultSpec(kind="drop", max_events=0)
        with pytest.raises(ValueError, match="unknown network fault spec key"):
            NetworkFaultSpec.from_dict({"kind": "drop", "chance": 0.5})
        with pytest.raises(ValueError, match="requires a 'kind'"):
            NetworkFaultSpec.from_dict({"probability": 0.5})
        with pytest.raises(ValueError, match="unknown network fault plan key"):
            NetworkFaultPlan.from_dict({"seed": 0, "spec": []})
        with pytest.raises(ValueError, match="seed must be an int"):
            NetworkFaultPlan.from_dict({"seed": "zero"})
        with pytest.raises(ValueError, match="invalid network fault plan JSON"):
            NetworkFaultPlan.from_json("{not json")
        with pytest.raises(ValueError, match="cannot read"):
            NetworkFaultPlan.load(tmp_path / "missing.json")

    def test_peer_matching(self):
        spec = NetworkFaultSpec(kind="drop", peer=":7001")
        assert spec.matches("127.0.0.1:7001")
        assert not spec.matches("127.0.0.1:7002")
        assert NetworkFaultSpec(kind="drop").matches("anything")

    def test_decision_sequence_is_deterministic(self):
        """Identical engines hand identical connections identical fault
        decisions — chaos replays from the plan seed alone."""
        plan = NetworkFaultPlan(
            seed=3, faults=(NetworkFaultSpec(kind="corrupt", probability=0.5),)
        )

        def rolls(engine):
            conn = engine.wrap(None, "10.0.0.1:9000")
            return [bool(conn._roll(("corrupt",))) for _ in range(32)]

        first = rolls(ChaosEngine(plan))
        second = rolls(ChaosEngine(plan))
        assert first == second
        assert any(first) and not all(first)
        # ...and a different plan seed gives a different sequence.
        other = ChaosEngine(NetworkFaultPlan(seed=4, faults=plan.faults))
        assert rolls(other) != first

    def test_stream_is_keyed_by_slot_not_by_port(self):
        """Two engines under one plan, wrapping connections to
        *different* (ephemeral) ports at the same slot, corrupt the same
        frames at the same bits; a reconnect in the slot, another slot
        and the worker side each draw their own stream."""
        plan = NetworkFaultPlan(
            seed=3, faults=(NetworkFaultSpec(kind="corrupt", probability=0.5),)
        )

        class Recorder:
            def __init__(self):
                self.frames = []

            def send_bytes(self, frame, timeout=None):
                self.frames.append(frame)
                return len(frame)

        def sent(engine, port, slot):
            inner = Recorder()
            conn = engine.wrap(inner, f"127.0.0.1:{port}", slot)
            for i in range(32):
                conn.send_frame(MSG_HEARTBEAT, bytes([i]) * 16)
            return inner.frames

        first = sent(ChaosEngine(plan), 40123, slot=1)
        engine = ChaosEngine(plan)
        assert sent(engine, 51999, slot=1) == first
        assert sent(engine, 51999, slot=1) != first  # the slot's redial
        assert sent(ChaosEngine(plan), 40123, slot=0) != first
        assert sent(ChaosEngine(plan, side="worker"), 40123, slot=1) != first

    def test_max_events_budget(self):
        plan = NetworkFaultPlan(
            seed=0,
            faults=(NetworkFaultSpec(kind="refuse", max_events=2),),
        )
        engine = ChaosEngine(plan)
        outcomes = [engine.refuse_connect("w:1") for _ in range(5)]
        assert outcomes == [True, True, False, False, False]
        assert engine.fired_counts() == {"refuse": 2}


# ----------------------------------------------------------------------
# Resilience primitives
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_full_state_machine(self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAILURES", 2)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_S", 1.0)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_MAX_S", 4.0)
        clock = [0.0]
        transitions = []
        breaker = CircuitBreaker(
            on_transition=lambda old, new: transitions.append((old, new)),
            clock=lambda: clock[0],
        )
        assert breaker.state == BREAKER_CLOSED and breaker.try_acquire()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.try_acquire()  # cooldown not over

        clock[0] = 1.0  # cooldown expires → half-open, one probe only
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.try_acquire()
        assert not breaker.try_acquire()  # probe in flight

        breaker.record_failure()  # probe fails → open, cooldown doubled
        assert breaker.state == BREAKER_OPEN
        assert breaker.cooldown_s == 2.0
        clock[0] = 2.0
        assert not breaker.try_acquire()  # doubled cooldown still running
        clock[0] = 3.0
        assert breaker.try_acquire()
        breaker.record_success()  # probe succeeds → closed, cooldown reset
        assert breaker.state == BREAKER_CLOSED
        assert breaker.cooldown_s == 1.0
        assert transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        assert breaker.transitions == len(transitions)

    def test_cooldown_escalation_is_capped(self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAILURES", 1)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_S", 1.0)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_MAX_S", 3.0)
        clock = [0.0]
        breaker = CircuitBreaker(clock=lambda: clock[0])
        breaker.record_failure()
        for expected in (2.0, 3.0, 3.0):
            clock[0] += 10.0
            assert breaker.try_acquire()
            breaker.record_failure()
            assert breaker.cooldown_s == expected


class TestWorkerHealth:
    def test_deadline_never_exceeds_static_timeout(self):
        """A task whose reply never comes is cut at ``task_timeout_s``
        and, out of retries, fails; the worker's counts and the health
        event record it."""

        class Silent(WorkerServer):
            def _handle_task(self, conn, payload):
                pass  # the reply a partition swallowed

        server = Silent(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{server.host}:{server.port}"],
            task_timeout_s=0.5,
            max_retries=0,
            telemetry=telemetry,
        )
        try:
            backend._ensure_workers()
            start = time.monotonic()
            (result,) = backend.run_tasks(make_tasks(num=1))
            elapsed = time.monotonic() - start
        finally:
            backend.close()
            server.stop()
            thread.join(timeout=5)
        assert not result.ok and "timed out after 0.5s" in result.error
        assert 0.4 < elapsed < 5
        (health,) = [
            e for e in telemetry.events() if e["event"] == "transport.health"
        ]
        assert [(w["ok"], w["failed"]) for w in health["workers"]] == [(0, 1)]

    def test_heartbeat_failures_tracked(self):
        """A worker that went away fails its round-start heartbeat: the
        failure is counted on its health record and in telemetry."""
        server, thread = start_worker()
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{server.host}:{server.port}"],
            task_timeout_s=5.0,
            telemetry=telemetry,
        )
        try:
            (endpoint,) = backend._ensure_workers()
            server.stop()
            thread.join(timeout=5)
            assert backend._ensure_workers() == []
            assert endpoint.heartbeat_failures == 1
        finally:
            backend.close()
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["transport.heartbeat_failures"]["value"] == 1


# ----------------------------------------------------------------------
# ChaosConnection over real sockets
# ----------------------------------------------------------------------
class TestChaosConnection:
    def wrap(self, conn, *specs, seed=0):
        plan = NetworkFaultPlan(seed=seed, faults=tuple(specs))
        return ChaosEngine(plan).wrap(conn, "peer:1")

    def test_corrupt_breaks_peer_crc(self):
        client, server = tcp_pair()
        chaotic = self.wrap(client, NetworkFaultSpec(kind="corrupt"))
        try:
            chaotic.send_frame(MSG_HEARTBEAT, b"ping")
            with pytest.raises(ProtocolError):
                server.recv_frame(timeout=5)
        finally:
            chaotic.close()
            server.close()

    def test_drop_cuts_frame_and_raises_both_sides(self):
        client, server = tcp_pair()
        chaotic = self.wrap(client, NetworkFaultSpec(kind="drop"))
        try:
            with pytest.raises(OSError, match="chaos"):
                chaotic.send_frame(MSG_HEARTBEAT, b"x" * 512)
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                server.recv_frame(timeout=5)
        finally:
            server.close()

    def test_blackhole_swallows_and_times_out(self):
        client, server = tcp_pair()
        chaotic = self.wrap(
            client, NetworkFaultSpec(kind="blackhole", duration_s=30.0)
        )
        try:
            # The send is swallowed (reported as delivered)...
            assert chaotic.send_frame(MSG_HEARTBEAT, b"gone") > 0
            # ...and the read stalls until the caller's deadline.
            start = time.monotonic()
            with pytest.raises(socket.timeout):
                chaotic.recv_frame(timeout=0.3)
            assert 0.2 < time.monotonic() - start < 5
        finally:
            chaotic.close()
            server.close()

    def test_throttle_and_latency_still_deliver(self):
        client, server = tcp_pair()
        chaotic = self.wrap(
            client,
            NetworkFaultSpec(kind="latency", latency_s=0.05),
            NetworkFaultSpec(kind="throttle", bytes_per_s=4096.0),
        )
        try:
            payload = b"z" * 2048
            start = time.monotonic()
            chaotic.send_frame(MSG_HEARTBEAT, payload)
            msg, got = server.recv_frame(timeout=10)
            assert (msg, got) == (MSG_HEARTBEAT, payload)
            assert time.monotonic() - start > 0.05  # the latency was real
        finally:
            chaotic.close()
            server.close()

    def test_clean_path_is_transparent(self):
        client, server = tcp_pair()
        # peer-scoped spec that does NOT match: pure passthrough
        chaotic = self.wrap(
            client, NetworkFaultSpec(kind="drop", peer="elsewhere")
        )
        try:
            chaotic.send_frame(MSG_HEARTBEAT_ACK, b"ok")
            assert server.recv_frame(timeout=5) == (MSG_HEARTBEAT_ACK, b"ok")
            assert chaotic.bytes_sent == server.bytes_received
        finally:
            chaotic.close()
            server.close()


# ----------------------------------------------------------------------
# SocketBackend under chaos (the soak matrix)
# ----------------------------------------------------------------------
@pytest.fixture
def fast_resilience(monkeypatch):
    """Short breaker cooldowns, so a soak round that trips a breaker
    recovers within the test."""
    monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_S", 0.2)
    monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_MAX_S", 1.0)


def soak_spec(kind):
    knobs = {"kind": kind, "probability": 0.25}
    if kind == "latency":
        knobs.update(latency_s=0.02, jitter_s=0.01)
    elif kind == "blackhole":
        knobs.update(probability=0.1, duration_s=0.3)
    elif kind == "throttle":
        knobs.update(bytes_per_s=262144.0)
    elif kind == "refuse":
        knobs.update(probability=0.3)
    return NetworkFaultSpec(**knobs)


class TestChaosSoak:
    @pytest.mark.parametrize("kind", NETWORK_FAULT_KINDS)
    def test_every_fault_kind_completes_without_deadlock(self, kind, fast_resilience):
        """ISSUE 8 acceptance: two seeded rounds under each fault class
        finish within a wall cap; tasks may degrade to offline (not ok)
        but the round always returns."""
        servers = [start_worker() for _ in range(2)]
        telemetry = Telemetry()
        participants = build_participants()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{s.host}:{s.port}" for s, _ in servers],
            task_timeout_s=8.0,
            max_retries=2,
            telemetry=telemetry,
            network_fault_plan=NetworkFaultPlan(
                seed=13, faults=(soak_spec(kind),)
            ),
        )
        start = time.monotonic()
        try:
            for round_index in range(2):
                results = backend.run_tasks(
                    make_tasks(seed=round_index, round_index=round_index)
                )
                assert len(results) == 3
                assert [r.participant_id for r in results] == [0, 1, 2]
        finally:
            backend.close()
            for server, thread in servers:
                server.stop()
                thread.join(timeout=5)
        assert time.monotonic() - start < 90  # bounded, not deadlocked
        # The chaos must actually have been exercised and observed.
        snapshot = telemetry.metrics_snapshot()
        assert snapshot.get("faults.network", {}).get("value", 0) >= 1
        kinds_fired = {
            e["kind"] for e in telemetry.events()
            if e["event"] == "fault.network"
        }
        assert kind in kinds_fired

    def test_breaker_opens_and_gates_redial_under_refusal(self, monkeypatch):
        """A peer that refuses every dial trips its breaker; once open,
        further rounds skip the redial entirely (respawn gating)."""
        monkeypatch.setattr(resilience, "BREAKER_FAILURES", 2)
        monkeypatch.setattr(resilience, "BREAKER_COOLDOWN_S", 30.0)
        server, thread = start_worker()
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{server.host}:{server.port}"],
            task_timeout_s=5.0,
            telemetry=telemetry,
            network_fault_plan=NetworkFaultPlan(
                seed=0, faults=(NetworkFaultSpec(kind="refuse"),)
            ),
        )
        try:
            for _ in range(4):
                assert backend._ensure_workers() == []
            endpoint = backend._endpoints[0]
            assert endpoint.breaker.state == BREAKER_OPEN
        finally:
            backend.close()
            server.stop()
            thread.join(timeout=5)
        snapshot = telemetry.metrics_snapshot()
        assert snapshot.get("transport.respawn_gated", {}).get("value", 0) >= 1
        transitions = [
            e for e in telemetry.events() if e["event"] == "transport.breaker"
        ]
        assert transitions and transitions[0]["to_state"] == BREAKER_OPEN
        # the refusal count stopped growing once the breaker gated dials
        refused = telemetry.metrics_snapshot().get(
            "faults.network.refuse", {}
        ).get("value", 0)
        assert refused == 2

    def test_retry_lands_on_the_other_replica(self):
        """A task frame dropped on its way to one worker is retried on
        the other, which then serves every task of the round."""
        servers = [start_worker() for _ in range(2)]
        (first, _), (second, _) = servers
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{s.host}:{s.port}" for s, _ in servers],
            task_timeout_s=30.0,
            max_retries=1,
            telemetry=telemetry,
            # Seeded to stay quiet through hello and init (four rolls)
            # and fire on the first task frame to the first worker.
            network_fault_plan=NetworkFaultPlan(
                seed=170,
                faults=(
                    NetworkFaultSpec(
                        kind="drop",
                        probability=0.25,
                        max_events=1,
                        peer=f"{first.host}:{first.port}",
                    ),
                ),
            ),
        )
        try:
            results = backend.run_tasks(make_tasks(num=2, seed=4))
        finally:
            backend.close()
            for server, thread in servers:
                server.stop()
                thread.join(timeout=5)
        assert all(r.ok for r in results)
        drops = [e for e in telemetry.events() if e["event"] == "fault.network"]
        assert [(e["kind"], e["op"]) for e in drops] == [("drop", "send")]
        (retry,) = [
            e for e in telemetry.events() if e["event"] == "executor.task_retry"
        ]
        assert results[retry["participant"]].attempts == 2
        assert first.tasks_completed == 0
        assert second.tasks_completed == 2

    def test_remote_error_retry_skips_the_worker_it_failed_on(self):
        """A remote error keeps the connection, so the failing worker is
        still live and idle when the retry becomes ready; it must leave
        the retry to the other replica."""

        class Recording(WorkerServer):
            """Serves tasks and records whose; can fail its first one."""

            def __init__(self, fail_first):
                super().__init__(port=0)
                self.fail_first, self.served = fail_first, []

            def _handle_task(self, conn, payload):
                task, seq = codec.decode_task(payload)
                if self.fail_first:
                    self.fail_first = False
                    conn.send_frame(MSG_ERROR, codec.encode_error(seq, "injected"))
                    return
                self.served.append(task.participant_id)
                super()._handle_task(conn, payload)

        servers = [Recording(fail_first=True), Recording(fail_first=False)]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True) for s in servers
        ]
        for thread in threads:
            thread.start()
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{s.host}:{s.port}" for s in servers],
            task_timeout_s=30.0,
            max_retries=1,
            telemetry=telemetry,
        )
        try:
            results = backend.run_tasks(make_tasks(num=2, seed=6))
        finally:
            backend.close()
            for server, thread in zip(servers, threads):
                server.stop()
                thread.join(timeout=5)
        assert all(r.ok for r in results)
        (retry,) = [
            e for e in telemetry.events() if e["event"] == "executor.task_retry"
        ]
        assert retry["error"] == "remote error: injected"
        failing, other = servers
        assert retry["participant"] not in failing.served
        assert retry["participant"] in other.served
        assert sorted(failing.served + other.served) == [0, 1]

    def test_task_records_hold_under_thread_races(self):
        """Four workers race over twelve tasks with a tiny thread switch
        interval: every task was claimed and served exactly once (a lost
        update to a record or the queue would break the sums), every
        result is the serial one, and in task order."""
        servers = [start_worker() for _ in range(4)]
        participants = build_participants(num=12)
        tasks = make_tasks(num=12, seed=8)
        telemetry = Telemetry()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{s.host}:{s.port}" for s, _ in servers],
            task_timeout_s=30.0,
            telemetry=telemetry,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = backend.run_tasks(tasks)
        finally:
            sys.setswitchinterval(interval)
            backend.close()
            for server, thread in servers:
                server.stop()
                thread.join(timeout=5)
                assert not thread.is_alive()
        assert [r.participant_id for r in results] == list(range(12))
        assert all(r.ok for r in results)
        assert [r.attempts for r in results] == [1] * len(tasks)
        assert sum(server.tasks_completed for server, _ in servers) == len(tasks)
        (health,) = [
            e for e in telemetry.events() if e["event"] == "transport.health"
        ]
        assert sum(w["ok"] for w in health["workers"]) == len(tasks)
        expected = SerialBackend(participants, TINY).run_tasks(tasks)
        for a, b in zip(expected, results):
            assert a.update.reward == b.update.reward
            for name in a.update.gradients:
                np.testing.assert_array_equal(
                    a.update.gradients[name], b.update.gradients[name], err_msg=name
                )


# ----------------------------------------------------------------------
# Chaos-off determinism and observability
# ----------------------------------------------------------------------
def tiny_config(**overrides):
    base = dict(
        num_participants=2,
        train_per_class=6,
        test_per_class=2,
        warmup_rounds=1,
        search_rounds=2,
        retrain_epochs=1,
        fl_retrain_rounds=1,
        batch_size=8,
        seed=3,
        telemetry_enabled=False,
    )
    base.update(overrides)
    return ExperimentConfig.small(**base)


def run_report(**overrides):
    pipeline = FederatedModelSearch(tiny_config(**overrides))
    try:
        return pipeline.run()
    finally:
        pipeline.close()


def assert_reports_equal(a, b):
    assert a.genotype == b.genotype
    assert a.test_accuracy == b.test_accuracy
    assert a.model_parameters == b.model_parameters
    assert a.mean_submodel_bytes == b.mean_submodel_bytes
    assert a.simulated_search_time_s == b.simulated_search_time_s
    assert repr(a.warmup_results) == repr(b.warmup_results)
    assert repr(a.search_results) == repr(b.search_results)
    for name, values in a.search_recorder.series.items():
        np.testing.assert_array_equal(
            values, b.search_recorder.series[name], err_msg=name
        )


class TestChaosOffBitIdentity:
    def test_empty_plan_reports_bit_identical(self, tmp_path):
        """ISSUE 8 acceptance: with chaos *disabled* (an empty plan as
        ``network_faults``) the SearchReport is bit-identical across
        serial/process/socket, and to a run without the knob."""
        empty = tmp_path / "empty.json"
        NetworkFaultPlan(seed=9).save(empty)
        reference = run_report(backend="serial")
        for backend in ("serial", "socket", "process"):
            report = run_report(
                backend=backend, num_workers=2, network_faults=str(empty)
            )
            assert_reports_equal(reference, report)


class TestChaosObservability:
    def test_trace_renders_worker_health_section(self):
        events = [
            {
                "event": "transport.breaker",
                "worker": "127.0.0.1:7000",
                "from_state": "closed",
                "to_state": "open",
                "cooldown_s": 2.0,
            },
            {"event": "fault.network", "kind": "latency", "peer": "w", "side": "server"},
            {"event": "fault.network", "kind": "drop", "peer": "w", "side": "server"},
            {
                "event": "transport.heartbeat_failed",
                "worker": "127.0.0.1:7000",
                "error": "boom",
            },
            {
                "event": "transport.health",
                "round": 0,
                "workers": [
                    {
                        "worker": "127.0.0.1:7000",
                        "state": "open",
                        "alive": False,
                        "ok": 3,
                        "failed": 3,
                        "heartbeat_failures": 1,
                    },
                    {
                        "worker": "127.0.0.1:7001",
                        "state": "closed",
                        "alive": True,
                        "ok": 6,
                        "failed": 0,
                        "heartbeat_failures": 0,
                    },
                ],
            },
        ]
        summary = summarize_trace(events)
        health = summary["health"]
        assert health["breaker_transitions_total"] == 1
        assert health["faults"] == {"drop": 1, "latency": 1}
        assert health["heartbeat_failures"] == 1
        assert [w["worker"] for w in health["workers"]] == [
            "127.0.0.1:7000",
            "127.0.0.1:7001",
        ]

        text = render_trace(summary)
        assert "Worker health / chaos" in text
        assert "injected wire faults: drop=1, latency=1" in text
        assert "breaker transitions: 1   heartbeat failures: 1" in text
        assert "| 127.0.0.1:7000 | open |" in text

    def test_end_to_end_chaos_run_is_traceable(self, fast_resilience):
        """A real chaos round produces a trace whose report shows the
        health section (breaker/fault activity observable)."""
        servers = [start_worker() for _ in range(2)]
        telemetry = Telemetry()
        backend = SocketBackend(
            build_participants(),
            TINY,
            workers=[f"{s.host}:{s.port}" for s, _ in servers],
            task_timeout_s=8.0,
            max_retries=2,
            telemetry=telemetry,
            network_fault_plan=NetworkFaultPlan(
                seed=5,
                faults=(
                    NetworkFaultSpec(
                        kind="latency", probability=0.5, latency_s=0.02
                    ),
                ),
            ),
        )
        try:
            backend.run_tasks(make_tasks(seed=1))
        finally:
            backend.close()
            for server, thread in servers:
                server.stop()
                thread.join(timeout=5)
        text = render_trace(summarize_trace(list(telemetry.events())))
        assert "Worker health / chaos" in text
        assert "injected wire faults:" in text
