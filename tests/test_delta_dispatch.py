"""Delta-encoded dispatch, sparse aggregation, and CoW pools (ISSUE 5).

The contract under test: the versioned-parameter layer is a pure wire
optimisation.  Seeded results on the distributed backends (which always
dispatch deltas) are bit-identical to the serial backend (which ships
nothing), across a worker kill -9 (full re-sync), and across
checkpoint/resume (cold caches) — correctness never depends on cache
warmth.  Alongside: the one ``DeltaLedger`` the worker backends drive, the
server's in-place sparse gradient aggregation equals a naive dense sum,
and the copy-on-write memory pools share unchanged arrays between
rounds.
"""

import io

import os
import signal
import threading

import numpy as np
import pytest

from repro.checkpoint import restore_search_state, save_search_state
from repro.controller import ArchitecturePolicy
from repro.core import ExperimentConfig, FederatedModelSearch
from repro.data import iid_partition, synth_cifar10
import repro.nn as nn
from repro.federated import (
    DeltaCacheMiss,
    DeltaLedger,
    DistributionDelay,
    FederatedSearchServer,
    LocalStepTask,
    ParameterVersions,
    Participant,
    build_backend,
    resolve_task,
    split_delta,
)
from repro.federated.memory import MemoryPools
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import Telemetry
from repro.transport import MSG_ERROR, SocketBackend, WorkerServer, codec

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_server(backend_name="serial", seed=0, telemetry=None):
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    backend = build_backend(
        backend_name,
        participants,
        TINY,
        num_workers=2,
        telemetry=telemetry,
    )
    return FederatedSearchServer(
        supernet,
        policy,
        participants,
        delay_model=DistributionDelay(
            [0.6, 0.4], staleness_threshold=2, rng=np.random.default_rng(seed + 3)
        ),
        rng=np.random.default_rng(seed + 4),
        backend=backend,
        telemetry=telemetry,
    )


def assert_servers_equal(a, b):
    np.testing.assert_array_equal(a.policy.alpha, b.policy.alpha)
    for (name, p_a), (_, p_b) in zip(
        a.supernet.named_parameters(), b.supernet.named_parameters()
    ):
        np.testing.assert_array_equal(p_a.data, p_b.data, err_msg=name)
    for (name, b_a), (_, b_b) in zip(
        a.supernet.named_buffers(), b.supernet.named_buffers()
    ):
        np.testing.assert_array_equal(b_a, b_b, err_msg=name)


# ----------------------------------------------------------------------
# Version protocol units
# ----------------------------------------------------------------------
class TestVersioning:
    def test_versions_start_at_one_and_bump(self):
        versions = ParameterVersions(["a", "b"])
        assert versions["a"] == 1 and versions["b"] == 1
        versions.bump(["a"])
        assert versions["a"] == 2 and versions["b"] == 1
        versions.bump_all()
        assert versions["a"] == 3 and versions["b"] == 2
        assert versions.subset(["b"]) == {"b": 2}

    def test_split_delta_ships_only_unacked(self):
        state = {"a": np.ones(2), "b": np.zeros(2), "c": np.full(2, 3.0)}
        versions = {"a": 2, "b": 1, "c": 5}
        delta, refs = split_delta(state, versions, {"a": 2, "b": 1, "c": 4})
        assert set(delta) == {"c"}  # stale ack → re-ship
        assert refs == {"a": 2, "b": 1}
        # Never-acked receiver gets everything.
        delta, refs = split_delta(state, versions, {})
        assert set(delta) == set(state) and refs == {}

    def test_resolve_task_merges_refs_and_caches_shipped(self):
        cache = {}
        full = LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=None,
            state={"a": np.ones(2), "b": np.zeros(2)},
            batch_seed=7,
            state_versions={"a": 1, "b": 1},
        )
        resolved = resolve_task(full, cache)
        assert set(resolved.state) == {"a", "b"}
        assert cache["a"][0] == 1 and cache["b"][0] == 1

        delta = LocalStepTask(
            participant_id=0,
            round_index=1,
            mask=None,
            state={"a": np.full(2, 9.0)},
            batch_seed=8,
            state_versions={"a": 2},
            state_refs={"b": 1},
        )
        resolved = resolve_task(delta, cache)
        np.testing.assert_array_equal(resolved.state["a"], np.full(2, 9.0))
        np.testing.assert_array_equal(resolved.state["b"], np.zeros(2))
        assert resolved.state_refs is None
        assert cache["a"][0] == 2  # shipped entry re-cached at new version

    def test_resolve_task_raises_on_cold_or_stale_cache(self):
        delta = LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=None,
            state={},
            batch_seed=0,
            state_versions={},
            state_refs={"b": 2},
        )
        with pytest.raises(DeltaCacheMiss):
            resolve_task(delta, {})
        with pytest.raises(DeltaCacheMiss) as exc:
            resolve_task(delta, {"b": (1, np.zeros(2))})
        assert exc.value.missing == ["b"]


# ----------------------------------------------------------------------
# Packed state blobs (the delta-mode wire format)
# ----------------------------------------------------------------------
class TestPackedState:
    def state(self):
        rng = np.random.default_rng(3)
        return {
            "w": rng.normal(size=(4, 3, 2)),
            "b": rng.normal(size=(5,)),
            "scalar": np.array(2.5),
        }

    def test_round_trip_is_lossless_at_float64(self):
        from repro.nn import pack_state, unpack_state

        state = self.state()
        back = unpack_state(pack_state(state, dtype="float64"))
        assert list(back) == list(state)
        for name in state:
            assert back[name].dtype == np.float64
            np.testing.assert_array_equal(back[name], state[name], err_msg=name)

    def test_zlib_round_trip_and_truncation(self):
        from repro.nn import pack_state, unpack_state

        state = self.state()
        blob = pack_state(state, dtype="float64", compress=True)
        back = unpack_state(blob, compressed=True)
        np.testing.assert_array_equal(back["w"], state["w"])
        with pytest.raises(ValueError):
            unpack_state(pack_state(state, dtype="float64")[:-3])

    def test_much_smaller_than_npz_for_many_small_arrays(self):
        from repro.nn import pack_state

        state = {f"p{i}": np.zeros(8) for i in range(40)}
        packed = len(pack_state(state, dtype="float64"))
        container = io.BytesIO()
        np.savez(container, **state)  # the wire format this one replaced
        assert packed < len(container.getvalue()) / 3

    def test_packed_task_payload_round_trips(self):
        from repro.transport import codec

        rng = np.random.default_rng(0)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        mask = policy.sample_mask()
        task = LocalStepTask(
            participant_id=1,
            round_index=2,
            mask=mask,
            state=supernet.submodel_state(mask),
            batch_seed=9,
            state_versions={name: 1 for name in supernet.submodel_state(mask)},
        )
        payload = codec.encode_task(task, 5)
        decoded, seq = codec.decode_task(payload)
        assert seq == 5
        assert decoded.state_versions == task.state_versions
        for name in task.state:
            np.testing.assert_array_equal(
                decoded.state[name], task.state[name], err_msg=name
            )

    def test_packed_update_payload_round_trips_and_rejects_damage(self):
        """Updates ride the same packed blob as tasks: lossless at
        float64; truncation raises or yields intact leading entries,
        and a bit flip raises or (inside array data) still decodes to a
        well-formed update the validator gets to judge."""
        from repro.federated import ParticipantUpdate
        from repro.transport import codec
        from repro.transport.protocol import ProtocolError

        state = self.state()
        update = ParticipantUpdate(
            participant_id=3,
            gradients={"w": state["w"], "scalar": state["scalar"]},
            reward=0.625,
            num_samples=8,
            compute_time_s=0.25,
            buffers={"b": state["b"]},
        )
        for compression in ("none", "zlib"):
            payload = codec.encode_update(
                update, 11, compression=compression, wire_dtype="float64"
            )
            decoded, seq = codec.decode_update(payload)
            assert seq == 11
            assert (decoded.participant_id, decoded.reward) == (3, 0.625)
            assert list(decoded.gradients) == ["w", "scalar"]
            for name, grad in update.gradients.items():
                np.testing.assert_array_equal(decoded.gradients[name], grad)
            np.testing.assert_array_equal(decoded.buffers["b"], state["b"])
            originals = {**update.gradients, **update.buffers}
            for cut in range(0, len(payload) - 1, 7):
                try:
                    short, _ = codec.decode_update(payload[:cut])
                except ProtocolError:
                    continue
                # the blob has no trailer (the frame layer's length + CRC
                # catch truncation): a cut on an entry boundary decodes,
                # but only ever to intact leading entries
                assert compression == "none"
                arrays = {**short.gradients, **short.buffers}
                assert list(arrays) == list(originals)[: len(arrays)]
                for name, value in arrays.items():
                    np.testing.assert_array_equal(value, originals[name])
            rng = np.random.default_rng(5)
            for position in rng.integers(0, len(payload), size=60):
                damaged = bytearray(payload)
                damaged[position] ^= 1 << int(rng.integers(8))
                try:
                    mangled, _ = codec.decode_update(bytes(damaged))
                except ProtocolError:
                    continue
                assert isinstance(mangled, ParticipantUpdate)


# ----------------------------------------------------------------------
# The delta ledger the worker backends drive
# ----------------------------------------------------------------------
class TestDeltaLedger:
    def task(self, versions):
        return LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=None,
            state={name: np.zeros(2) for name in versions},
            batch_seed=0,
            state_versions=dict(versions),
        )

    def test_per_worker_view_vs_all_workers_view(self):
        """Each worker is sent references to what *it* acknowledged;
        no worker's acks leak into another's view."""
        ledger = DeltaLedger("test")
        ledger.begin_round()
        ledger.record("w1", {"a": 1, "b": 2})
        assert ledger.acked("w1") == {"a": 1, "b": 2}
        assert ledger.acked("w2") == {}
        ledger.record("w2", {"a": 1, "b": 1, "c": 4})
        assert ledger.acked("w1") == {"a": 1, "b": 2}
        assert ledger.acked("w2") == {"a": 1, "b": 1, "c": 4}
        # a later reply moves only the versions it carries
        ledger.record("w1", {"b": 3})
        assert ledger.acked("w1") == {"a": 1, "b": 3}

    def test_delta_task_references_only_acked_versions_and_counts(self):
        ledger = DeltaLedger("test")
        ledger.begin_round()
        task = self.task({"a": 1, "b": 2})
        assert ledger.delta_task(task, {}) is task  # full sync travels as is
        wire = ledger.delta_task(task, {"a": 1, "b": 1})
        assert list(wire.state) == ["b"] and wire.state_refs == {"a": 1}
        assert ledger.stats == {
            "sent": 3, "cached": 1, "full_syncs": 1, "cache_misses": 0
        }
        bare = LocalStepTask(0, 0, None, {"a": np.zeros(2)}, 0)
        assert ledger.delta_task(bare, {"a": 1}) is bare  # no versions, no delta
        ledger.begin_round()
        assert not any(ledger.stats.values())

    def test_forget_on_cache_miss_keeps_the_worker_known(self):
        ledger = DeltaLedger("test")
        ledger.begin_round()
        ledger.record("w1", {"a": 1})
        ledger.record("w2", {"a": 1})
        ledger.forget("w1", cache_miss=True)
        assert ledger.acked("w1") == {}
        assert ledger.stats["cache_misses"] == 1
        # the other worker's cache is untouched
        assert ledger.acked("w2") == {"a": 1}
        ledger.record("w1", {"a": 1})
        assert ledger.acked("w1") == {"a": 1}

    def test_concurrent_workers_lose_no_update(self):
        """The socket backend's per-worker threads share one ledger:
        more threads than cores, a short switch interval, and counters
        a lost read-modify-write would break."""
        import sys

        ledger = DeltaLedger("test")
        ledger.begin_round()
        task = self.task({f"p{i}": 1 for i in range(8)})
        rounds, workers = 200, 8
        failures = []

        def drive(worker):
            try:
                for _ in range(rounds):
                    ledger.delta_task(task, ledger.acked(worker))
                    ledger.record(worker, task.state_versions)
                    ledger.forget(worker, cache_miss=True)
            except Exception as exc:  # surfaced below; a thread must not die silently
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=drive, args=(w,), daemon=True)
                for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        # every dispatch saw a just-voided worker: all full syncs
        assert ledger.stats == {
            "sent": rounds * workers * 8,
            "cached": 0,
            "full_syncs": rounds * workers,
            "cache_misses": rounds * workers,
        }

    def test_round_event_carries_the_stats(self):
        telemetry = Telemetry()
        ledger = DeltaLedger("test")
        ledger.begin_round()
        ledger.delta_task(self.task({"a": 1, "b": 2}), {"a": 1})
        ledger.end_round(telemetry, round_index=7, num_tasks=1)
        (event,) = [e for e in telemetry.events() if e["event"] == "dispatch.round"]
        assert (event["backend"], event["round"], event["tasks"]) == ("test", 7, 1)
        assert (event["params_sent"], event["params_cached"]) == (1, 1)
        assert event["cache_hit"] == 0.5


# ----------------------------------------------------------------------
# Sparse aggregation
# ----------------------------------------------------------------------
class TestSparseAggregation:
    def test_in_place_sum_equals_dense(self):
        server = make_server("serial", seed=3)
        rng = np.random.default_rng(0)
        # Three real parameters: the fold accepts only what the validator
        # passes, names and shapes the supernet has.
        shapes = {
            name: param.data.shape
            for name, param in list(server.supernet.named_parameters())[:3]
        }
        updates = [
            {
                name: rng.normal(size=shape)
                for name, shape in shapes.items()
                if rng.random() < 0.8
            }
            for _ in range(6)
        ]
        dense = {}
        for gradients in updates:
            for name, grad in gradients.items():
                dense[name] = dense.get(name, np.zeros_like(grad)) + grad
        sparse = {}
        for gradients in updates:
            server._add_gradients(sparse, gradients)
        assert set(sparse) == set(dense)
        for name in dense:
            np.testing.assert_array_equal(sparse[name], dense[name], err_msg=name)
            assert sparse[name] is server.arena.grad_view(name)

    def test_buffers_reused_across_rounds(self):
        server = make_server("serial", seed=3)
        name, param = next(iter(server.supernet.named_parameters()))
        shape = param.data.shape
        first = {}
        server._add_gradients(first, {name: np.ones(shape)})
        buffer = first[name]
        second = {}
        server._add_gradients(second, {name: np.full(shape, 5.0)})
        assert second[name] is buffer  # preallocated buffer, no fresh zeros dict
        np.testing.assert_array_equal(second[name], np.full(shape, 5.0))

    def test_seeded_run_unchanged_by_aggregation_path(self):
        # The sparse path is the only path now; pin its end-to-end result
        # against the serial reference that predates it (bit-identity of
        # two independently seeded servers).
        a = make_server("serial", seed=0)
        b = make_server("serial", seed=0)
        ra = a.run(4)
        rb = b.run(4)
        assert repr(ra) == repr(rb)
        assert_servers_equal(a, b)


# ----------------------------------------------------------------------
# Copy-on-write memory pools
# ----------------------------------------------------------------------
class TestCowPools:
    def arena(self, layers=2):
        rng = np.random.default_rng(0)
        model = nn.Sequential(*[nn.Linear(3, 3, rng=rng) for _ in range(layers)])
        arena = nn.ParameterArena.from_module(model)
        return arena, ParameterVersions(list(arena.index))

    def test_unchanged_params_share_arrays_between_rounds(self):
        pools = MemoryPools(staleness_threshold=2)
        arena, versions = self.arena()
        alpha = np.zeros(2)
        before = arena.view("0.weight").copy()
        pools.save_round(0, arena, alpha, versions=versions)
        versions.bump(["0.weight"])
        arena.view("0.weight")[...] += 1.0
        pools.save_round(1, arena, alpha, versions=versions)
        assert pools.theta(0)["1.weight"] is pools.theta(1)["1.weight"]  # shared
        assert pools.theta(0)["0.weight"] is not pools.theta(1)["0.weight"]
        np.testing.assert_array_equal(pools.theta(0)["0.weight"], before)
        np.testing.assert_array_equal(pools.theta(1)["0.weight"], before + 1.0)

    def test_snapshots_immune_to_later_mutation(self):
        pools = MemoryPools(staleness_threshold=2)
        arena, versions = self.arena()
        before = arena.view("0.bias").copy()
        pools.save_round(0, arena, np.zeros(1), versions=versions)
        arena.view("0.bias")[...] = 99.0  # in-place optimizer-style mutation
        np.testing.assert_array_equal(pools.theta(0)["0.bias"], before)

    def test_pool_memory_scales_with_changed_params(self):
        """Regression for the old deep-copy: distinct arrays across the
        window must be O(full θ + changed × window), not O(full θ × window)."""
        pools = MemoryPools(staleness_threshold=8)
        arena, versions = self.arena(layers=10)
        names = arena.param_names  # 20 entries
        window = 9
        for t in range(window):
            pools.save_round(t, arena, np.zeros(1), versions=versions)
            versions.bump([names[t]])  # one parameter changes per round
            arena.view(names[t])[...] += 1.0
        distinct = {
            id(arr) for t in range(window) for arr in pools.theta(t).values()
        }
        deep_copy_count = len(names) * window  # 180 under the old behaviour
        assert len(distinct) <= len(names) + window  # ≤ 29 with CoW
        assert len(distinct) < deep_copy_count / 3

    def test_versionless_save_still_deep_copies(self):
        pools = MemoryPools(staleness_threshold=2)
        theta = {"a": np.ones(3)}
        pools.save_round(0, theta, np.zeros(1))
        assert pools.theta(0)["a"] is not theta["a"]
        np.testing.assert_array_equal(pools.theta(0)["a"], theta["a"])


# ----------------------------------------------------------------------
# Bit-identity: delta-dispatching backends vs the serial reference
# ----------------------------------------------------------------------
class TestDeltaBitIdentity:
    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_server_rounds_match_serial(self, backend_name):
        reference = make_server("serial", seed=0)
        reference.run(5)
        delta = make_server(backend_name, seed=0)
        try:
            delta.run(5)
        finally:
            delta.backend.close()
        assert_servers_equal(reference, delta)

    def test_small_profile_search_report_matches(self):
        """ISSUE 5 acceptance: seeded ``SearchReport`` bit-identical
        between the delta-dispatching process backend and the serial
        backend, which hands every task its full state in-process."""
        reports = {}
        for backend_name in ("serial", "process"):
            config = ExperimentConfig.small(
                seed=1,
                backend=backend_name,
                num_workers=2,
                telemetry_enabled=False,
            )
            pipeline = FederatedModelSearch(config)
            try:
                reports[backend_name] = pipeline.run()
            finally:
                pipeline.close()
        off, on = reports["serial"], reports["process"]
        assert off.genotype == on.genotype
        assert off.test_accuracy == on.test_accuracy
        assert off.model_parameters == on.model_parameters
        assert off.simulated_search_time_s == on.simulated_search_time_s
        for attr in ("warmup_results", "search_results"):
            for a, b in zip(getattr(off, attr), getattr(on, attr)):
                assert a == b, f"{attr} diverged at round {a.round_index}"

    def test_socket_kill9_forces_full_resync_and_stays_identical(self):
        """kill -9 a worker mid-run: the respawned daemon starts cold,
        the server full-syncs it, and the run stays bit-identical."""
        reference = make_server("serial", seed=0)
        reference.run(6)

        telemetry = Telemetry()
        delta = make_server("socket", seed=0, telemetry=telemetry)
        try:
            delta.run(3)
            victim = next(
                e for e in delta.backend._endpoints if e.proc is not None
            )
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait(timeout=10)
            delta.run(3)
        finally:
            delta.backend.close()

        assert_servers_equal(reference, delta)
        events = {e["event"] for e in telemetry.events()}
        assert "transport.worker_respawned" in events

    def test_resume_from_cold_caches_matches_uninterrupted(self, tmp_path):
        """--resume path: restore bumps every version, so the first
        dispatch after resume ships full state to every (cold) worker."""
        uninterrupted = make_server("socket", seed=0)
        try:
            reference = uninterrupted.run(6)
        finally:
            uninterrupted.backend.close()

        first = make_server("socket", seed=0)
        try:
            head = first.run(3)
            path = tmp_path / "mid.ckpt"
            save_search_state(first, path)
        finally:
            first.backend.close()

        second = make_server("socket", seed=0)
        try:
            restore_search_state(second, path)
            # Every version was bumped: nothing a worker acked before the
            # checkpoint may satisfy a reference.
            assert all(
                second.versions.get(name) > 1
                for name, _ in second.supernet.named_parameters()
            )
            tail = second.run(3)
        finally:
            second.backend.close()

        assert repr(head + tail) == repr(reference)
        assert_servers_equal(uninterrupted, second)


# ----------------------------------------------------------------------
# Wire behaviour of the socket backend
# ----------------------------------------------------------------------
class TestDeltaWire:
    def build_backend_with_worker(self, telemetry=None):
        """External in-thread daemon so the test can reach its cache."""
        train, _ = synth_cifar10(
            seed=1, train_per_class=10, test_per_class=2, image_size=8
        )
        shards = iid_partition(train, 3, rng=np.random.default_rng(0))
        participants = [
            Participant(k, s, batch_size=8, rng=np.random.default_rng(k))
            for k, s in enumerate(shards)
        ]
        daemon = WorkerServer(port=0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{daemon.host}:{daemon.port}"],
            task_timeout_s=60.0,
            telemetry=telemetry,
        )
        return backend, daemon, thread, participants

    def make_round_tasks(self, versions, seed=0, round_index=0):
        rng = np.random.default_rng(seed)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        tasks = []
        for k in range(3):
            mask = policy.sample_mask()
            state = supernet.submodel_state(mask)
            tasks.append(
                LocalStepTask(
                    participant_id=k,
                    round_index=round_index,
                    mask=mask,
                    state=state,
                    batch_seed=seed + k,
                    state_versions=versions.subset(state),
                )
            )
        return tasks

    def test_second_round_sends_fewer_bytes(self):
        telemetry = Telemetry()
        backend, daemon, thread, _ = self.build_backend_with_worker(telemetry)
        names = None
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            names = [n for n, _ in supernet.named_parameters()] + [
                n for n, _ in supernet.named_buffers()
            ]
            versions = ParameterVersions(names)
            first = backend.run_tasks(self.make_round_tasks(versions, seed=0))
            second = backend.run_tasks(
                self.make_round_tasks(versions, seed=0, round_index=1)
            )
            assert all(r.ok for r in first) and all(r.ok for r in second)
        finally:
            backend.close()
            daemon.stop()
            thread.join(timeout=5)
        rounds = [
            e for e in telemetry.events() if e["event"] == "transport.round"
        ]
        assert len(rounds) == 2
        # Round 1 pays at least one full send (cold cache); round 2 with
        # unchanged versions is all refs, so strictly fewer bytes.
        assert rounds[1]["bytes_sent"] < rounds[0]["bytes_sent"]
        dispatch = [
            e for e in telemetry.events() if e["event"] == "dispatch.round"
        ]
        assert dispatch[0]["full_syncs"] >= 1
        assert dispatch[1]["full_syncs"] == 0
        assert dispatch[1]["params_cached"] > dispatch[0]["params_cached"]
        assert dispatch[1]["cache_hit"] > 0.9

    def test_cache_miss_triggers_full_resend_not_failure(self):
        telemetry = Telemetry()
        backend, daemon, thread, _ = self.build_backend_with_worker(telemetry)
        try:
            rng = np.random.default_rng(0)
            supernet = Supernet(TINY, rng=rng)
            names = [n for n, _ in supernet.named_parameters()] + [
                n for n, _ in supernet.named_buffers()
            ]
            versions = ParameterVersions(names)
            first = backend.run_tasks(self.make_round_tasks(versions, seed=0))
            assert all(r.ok for r in first)
            # Wipe the daemon's cache behind the server's back: the next
            # delta references versions the daemon no longer holds.
            daemon._param_cache.clear()
            second = backend.run_tasks(
                self.make_round_tasks(versions, seed=0, round_index=1)
            )
            assert all(r.ok for r in second)
            assert all(r.attempts == 1 for r in second)  # not a retry
        finally:
            backend.close()
            daemon.stop()
            thread.join(timeout=5)
        events = [e["event"] for e in telemetry.events()]
        assert "transport.delta_resync" in events
        dispatch = [
            e for e in telemetry.events() if e["event"] == "dispatch.round"
        ]
        assert dispatch[1]["cache_misses"] >= 1

    def test_malformed_cache_miss_frame_drops_the_connection(self):
        """A ``cache_miss`` error frame whose ``missing`` is null is a
        protocol violation: that connection drops and the task is retried
        on the other worker, instead of a dispatch thread dying on the
        bad field and leaving the round unsettled."""

        class Malformed(WorkerServer):
            """Answers its first armed task with a malformed cache miss."""

            armed = False

            def _handle_task(self, conn, payload):
                if not self.armed:
                    return super()._handle_task(conn, payload)
                self.armed = False
                _, seq = codec.decode_task(payload)
                frame = {"seq": seq, "error": "miss", "code": "cache_miss", "missing": None}
                conn.send_frame(MSG_ERROR, codec.encode_json(frame))

        daemons = [Malformed(port=0), WorkerServer(port=0)]
        threads = [
            threading.Thread(target=d.serve_forever, daemon=True) for d in daemons
        ]
        for thread in threads:
            thread.start()
        train, _ = synth_cifar10(
            seed=1, train_per_class=10, test_per_class=2, image_size=8
        )
        shards = iid_partition(train, 3, rng=np.random.default_rng(0))
        telemetry = Telemetry()
        backend = SocketBackend(
            [Participant(k, s, batch_size=8) for k, s in enumerate(shards)],
            TINY,
            workers=[f"{d.host}:{d.port}" for d in daemons],
            task_timeout_s=60.0,
            telemetry=telemetry,
        )
        try:
            supernet = Supernet(TINY, rng=np.random.default_rng(0))
            versions = ParameterVersions(list(supernet.state_dict()))
            first = backend.run_tasks(self.make_round_tasks(versions))
            daemons[0].armed = True
            # A dead dispatch thread would leave the round unsettled
            # forever: wait for it on a thread of our own.
            settled = []
            runner = threading.Thread(
                target=lambda: settled.extend(
                    backend.run_tasks(self.make_round_tasks(versions, round_index=1))
                ),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
            assert settled, "the round never settled"
            second = settled
        finally:
            backend.close()
            for daemon, thread in zip(daemons, threads):
                daemon.stop()
                thread.join(timeout=5)
        assert all(r.ok for r in first + second)
        assert sorted(r.attempts for r in second) == [1, 1, 2]
        (retry,) = [
            e for e in telemetry.events() if e["event"] == "executor.task_retry"
        ]
        assert retry["error"].startswith("ProtocolError") and "missing" in retry["error"]
