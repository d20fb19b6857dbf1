"""Execution-engine tests: the task API, backend equivalence, and
failure degradation.

The hard requirement (ISSUE 2): seeded runs must be **bit-identical**
across the ``serial`` and ``process`` backends, and a crashed or hung
worker must degrade the participant to offline-for-the-round instead of
killing the search.
"""

import pickle

import numpy as np
import pytest

from repro import ExperimentConfig, FederatedModelSearch
from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.faults import NetworkFaultPlan, NetworkFaultSpec
from repro.federated import (
    FederatedSearchServer,
    LocalStepTask,
    Participant,
    ParticipantSpec,
    ProcessPoolBackend,
    SerialBackend,
    build_backend,
    run_local_step,
)
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import Telemetry

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


def build_server(backend=None, seed=0, telemetry=None):
    rng = np.random.default_rng(seed)
    participants = build_participants(seed=seed)
    supernet = Supernet(TINY, rng=rng)
    policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
    return FederatedSearchServer(
        supernet,
        policy,
        participants,
        rng=rng,
        backend=backend,
        telemetry=telemetry,
    )


def make_task(supernet, policy, participant, seed=7):
    mask = policy.sample_mask()
    return LocalStepTask(
        participant_id=participant.participant_id,
        round_index=0,
        mask=mask,
        state=supernet.submodel_state(mask),
        batch_seed=seed,
    )


#: One wire drop, seeded to land on the first task frame: the chaos
#: stream of worker slot 0 stays quiet through hello and init (four
#: rolls, as does slot 1's) and fires on the fifth.  ``max_events=1``
#: keeps it to that one task.
ONE_TASK_DROP = NetworkFaultPlan(
    seed=170,
    faults=(NetworkFaultSpec("drop", probability=0.25, max_events=1),),
)


class TestLocalStepPurity:
    def test_same_task_same_update(self):
        rng = np.random.default_rng(3)
        participants = build_participants()
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        task = make_task(supernet, policy, participants[0])
        a = run_local_step(task, participants[0].dataset, 8, TINY)
        b = run_local_step(task, participants[0].dataset, 8, TINY)
        assert a.reward == b.reward
        assert set(a.gradients) == set(b.gradients)
        for name in a.gradients:
            np.testing.assert_array_equal(a.gradients[name], b.gradients[name])

    def test_batch_seed_changes_batch(self):
        rng = np.random.default_rng(3)
        participants = build_participants()
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        task = make_task(supernet, policy, participants[0], seed=7)
        other = LocalStepTask(
            participant_id=task.participant_id,
            round_index=task.round_index,
            mask=task.mask,
            state=task.state,
            batch_seed=8,
        )
        a = run_local_step(task, participants[0].dataset, 8, TINY)
        b = run_local_step(other, participants[0].dataset, 8, TINY)
        assert any(
            not np.array_equal(a.gradients[name], b.gradients[name])
            for name in a.gradients
        )

    def test_task_state_loads_into_fresh_submodel(self):
        """``submodel_state(mask)`` is exactly a masked supernet's state."""
        rng = np.random.default_rng(5)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        mask = policy.sample_mask()
        state = supernet.submodel_state(mask)
        rebuilt = Supernet(TINY, rng=np.random.default_rng(0), mask=mask)
        rebuilt.load_state_dict(dict(state))  # strict: raises on mismatch
        extracted = supernet.extract_submodel(mask)
        for (name, a), (_, b) in zip(
            rebuilt.named_parameters(), extracted.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestBackendEquivalence:
    def test_server_rounds_bit_identical(self):
        serial = build_server(seed=0)
        serial.run(5)

        participants = build_participants(seed=0)
        backend = ProcessPoolBackend(
            participants, TINY, num_workers=2, task_timeout_s=60.0
        )
        rng = np.random.default_rng(0)
        # Rebuild with the same seed stream as build_server.
        process = FederatedSearchServer(
            Supernet(TINY, rng=rng),
            ArchitecturePolicy(TINY.num_edges, rng=rng),
            participants,
            rng=rng,
            backend=backend,
        )
        try:
            process.run(5)
        finally:
            backend.close()

        np.testing.assert_array_equal(serial.policy.alpha, process.policy.alpha)
        for (name, a), (_, b) in zip(
            serial.supernet.named_parameters(), process.supernet.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_small_profile_search_report_bit_identical(self):
        """The ISSUE 2/4 acceptance check: ``ExperimentConfig.small(seed=1)``
        produces a bit-identical ``SearchReport`` under all three backends
        (serial, forked local workers, and socket/TCP)."""
        reports = {}
        for backend in ("serial", "process", "socket"):
            config = ExperimentConfig.small(
                seed=1, backend=backend, num_workers=2, telemetry_enabled=False
            )
            pipeline = FederatedModelSearch(config)
            try:
                reports[backend] = pipeline.run()
            finally:
                pipeline.close()

        serial = reports["serial"]
        for name in ("process", "socket"):
            other = reports[name]
            assert serial.genotype == other.genotype, name
            assert serial.test_accuracy == other.test_accuracy, name
            assert serial.model_parameters == other.model_parameters, name
            assert (
                serial.simulated_search_time_s == other.simulated_search_time_s
            ), name
            for attr in ("warmup_results", "search_results"):
                for a, b in zip(getattr(serial, attr), getattr(other, attr)):
                    assert a == b, (
                        f"{name} {attr} diverged at round {a.round_index}"
                    )

    def test_search_report_bit_identical_with_tracing(self):
        """Distributed tracing is observation only: seeded reports are
        bit-identical with tracing off, on, and on+per-op profiling,
        under every backend — and traced runs actually produce worker
        spans (one ``trace.task`` event per dispatched task)."""
        shrink = dict(
            warmup_rounds=2,
            search_rounds=4,
            retrain_epochs=1,
            fl_retrain_rounds=2,
            num_participants=3,
            train_per_class=6,
            test_per_class=2,
        )

        def run(**kwargs):
            pipeline = FederatedModelSearch(
                ExperimentConfig.small(seed=3, **shrink, **kwargs)
            )
            try:
                report = pipeline.run()
            finally:
                pipeline.close()
            traced = [
                e for e in pipeline.telemetry.events()
                if e["event"] == "trace.task"
            ]
            return report, traced

        reference, _ = run(telemetry_enabled=False)
        dispatched = sum(
            r.num_fresh + r.num_stale_used + r.num_dropped
            for r in reference.warmup_results + reference.search_results
        )
        for backend in ("serial", "process", "socket"):
            for trace_ops in (False, True):
                report, traced = run(
                    backend=backend,
                    num_workers=2,
                    tracing_enabled=True,
                    trace_ops=trace_ops,
                )
                label = f"{backend} trace_ops={trace_ops}"
                assert report.genotype == reference.genotype, label
                assert report.test_accuracy == reference.test_accuracy, label
                assert (
                    report.simulated_search_time_s
                    == reference.simulated_search_time_s
                ), label
                for attr in ("warmup_results", "search_results"):
                    for a, b in zip(
                        getattr(report, attr), getattr(reference, attr)
                    ):
                        assert a == b, (
                            f"{label} {attr} diverged at round {a.round_index}"
                        )
                assert len(traced) >= dispatched, label
                assert all(e["spans"] for e in traced), label
                if trace_ops:
                    assert all(e.get("ops") for e in traced), label


class TestFailureDegradation:
    def test_worker_crash_degrades_to_offline(self):
        """A task lost on the wire costs its participant the round, not
        the search."""
        telemetry = Telemetry()
        participants = build_participants(seed=0)
        backend = ProcessPoolBackend(
            participants,
            TINY,
            num_workers=2,
            task_timeout_s=10.0,
            max_retries=0,
            telemetry=telemetry,
            network_fault_plan=ONE_TASK_DROP,
        )
        server = build_server(backend=backend, seed=0, telemetry=telemetry)
        try:
            results = server.run(2)
        finally:
            backend.close()
        assert [r.num_offline for r in results] == [1, 0]
        # The other participants' updates still land and train the model.
        assert all(r.num_fresh >= 1 for r in results)
        (crash,) = [
            e for e in telemetry.events() if e["event"] == "executor.worker_crash"
        ]
        offline = [
            e["participant"]
            for e in telemetry.events()
            if e["event"] == "participant_failed"
        ]
        assert offline == [crash["participant"]]

    def test_transient_failure_retries_and_recovers(self):
        telemetry = Telemetry()
        participants = build_participants(seed=0)
        backend = ProcessPoolBackend(
            participants,
            TINY,
            num_workers=2,
            task_timeout_s=30.0,
            max_retries=1,
            telemetry=telemetry,
            network_fault_plan=ONE_TASK_DROP,
        )
        server = build_server(backend=backend, seed=0, telemetry=telemetry)
        try:
            result = server.run_round()
        finally:
            backend.close()
        assert result.num_offline == 0
        assert result.num_fresh == len(participants)
        snapshot = telemetry.metrics_snapshot()
        retries = snapshot.get("executor.task_retries", {}).get("value", 0)
        assert retries >= 1


class TestBackendPlumbing:
    def test_build_backend_names(self):
        participants = build_participants()
        serial = build_backend("serial", participants, TINY)
        assert isinstance(serial, SerialBackend) and serial.name == "serial"
        from repro.transport import SocketBackend

        process = build_backend("process", participants, TINY, num_workers=2)
        assert isinstance(process, ProcessPoolBackend) and process.name == "process"
        # One worker runtime: the process backend is the socket backend's
        # auto-spawn path.
        assert isinstance(process, SocketBackend)
        process.close()

        sock = build_backend("socket", participants, TINY, num_workers=1)
        assert isinstance(sock, SocketBackend) and sock.name == "socket"
        sock.close()  # no daemons spawned yet: close is a no-op
        with pytest.raises(ValueError):
            build_backend("quantum", participants, TINY)

    def test_process_and_socket_from_a_default_config_differ_only_in_name(self):
        """``process`` is ``socket``'s auto-spawn path with the
        config-default wire options: built from one default config, the
        two backends hold the same settings, so a test run under either
        covers the other."""
        from repro.transport import SocketBackend

        built = {}
        for name in ("process", "socket"):
            pipeline = FederatedModelSearch(ExperimentConfig(backend=name))
            pipeline.close()
            built[name] = pipeline.backend
        process, sock = built["process"], built["socket"]
        assert type(sock) is SocketBackend and type(process).__mro__[1] is SocketBackend
        assert [k for k in vars(type(process)) if not k.startswith("__")] == ["name"]
        assert (process.name, process.ledger.backend) == ("process", "process")
        assert (sock.name, sock.ledger.backend) == ("socket", "socket")
        a, b = vars(process), vars(sock)
        assert a.keys() == b.keys()
        # Each pipeline's own telemetry, locks and parameter arena.
        handles = {"telemetry", "_lock", "_cond", "_arena"}
        for key in a.keys() - handles - {"_specs", "ledger"}:
            assert a[key] == b[key], key
        assert pickle.dumps(process._specs) == pickle.dumps(sock._specs)
        assert process.ledger.stats == sock.ledger.stats

    def test_participant_spec_strips_mutable_state(self):
        participant = build_participants()[0]
        spec = ParticipantSpec.from_participant(participant)
        assert spec.participant_id == participant.participant_id
        assert spec.batch_size == participant.loader.batch_size
        assert not hasattr(spec, "rng")
        assert not hasattr(spec, "telemetry")

    def test_process_backend_close_is_reusable(self):
        rng = np.random.default_rng(1)
        participants = build_participants()
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        backend = ProcessPoolBackend(participants, TINY, num_workers=2)
        task = make_task(supernet, policy, participants[0])
        try:
            first = backend.run_tasks([task])
            backend.close()  # lazily re-acquires workers on next use
            second = backend.run_tasks([task])
        finally:
            backend.close()
        assert first[0].ok and second[0].ok
        np.testing.assert_array_equal(
            first[0].update.gradients[next(iter(first[0].update.gradients))],
            second[0].update.gradients[next(iter(second[0].update.gradients))],
        )

    def test_executor_telemetry_gauges(self):
        telemetry = Telemetry()
        server = build_server(seed=2, telemetry=telemetry)
        server.run_round()
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["executor.inflight"]["type"] == "gauge"
        assert snapshot["executor.task_compute_s"]["type"] == "histogram"
        dispatches = [
            e for e in telemetry.events() if e["event"] == "executor.dispatch"
        ]
        assert len(dispatches) == 3
        assert all(e["backend"] == "serial" for e in dispatches)
