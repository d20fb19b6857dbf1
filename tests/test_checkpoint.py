"""Tests for checkpointing (repro.checkpoint)."""

import io
import json
from collections.abc import Mapping

import numpy as np
import pytest

import repro.checkpoint as checkpoint_module
import repro.nn as nn
from repro import ExperimentConfig, FederatedModelSearch
from repro.checkpoint import (
    load_genotype,
    load_model,
    restore_search_state,
    save_genotype,
    save_model,
    save_search_state,
)
from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.federated import FederatedSearchServer, Participant
from repro.search_space import Genotype, Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_server(seed=0):
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    return FederatedSearchServer(
        supernet, policy, participants, rng=np.random.default_rng(seed + 4)
    )


class TestModelCheckpoint:
    def test_roundtrip(self, tmp_path):
        a = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(0)))
        b = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(1)))
        path = tmp_path / "model.npz"
        save_model(a, path)
        load_model(b, path)
        np.testing.assert_array_equal(
            a.layers[0].weight.data, b.layers[0].weight.data
        )

    def test_load_shape_mismatch_rejected(self, tmp_path):
        a = nn.Sequential(nn.Linear(4, 3))
        b = nn.Sequential(nn.Linear(5, 3))
        path = tmp_path / "model.npz"
        save_model(a, path)
        with pytest.raises((ValueError, KeyError)):
            load_model(b, path)

    def test_buffers_roundtrip(self, tmp_path):
        a = nn.BatchNorm2d(3)
        a(nn.Tensor(np.random.default_rng(0).normal(size=(4, 3, 2, 2))))
        b = nn.BatchNorm2d(3)
        path = tmp_path / "bn.npz"
        save_model(a, path)
        load_model(b, path)
        np.testing.assert_array_equal(a.running_mean, b.running_mean)


class TestGenotypeCheckpoint:
    def test_roundtrip(self, tmp_path):
        genotype = Genotype(("sep_conv_3x3", "none"), ("skip_connect", "avg_pool_3x3"))
        path = tmp_path / "genotype.json"
        save_genotype(genotype, path)
        assert load_genotype(path) == genotype


class TestSearchStateCheckpoint:
    def test_resume_continues_identically(self, tmp_path):
        """Save mid-search, restore into a fresh server, and verify state
        (weights, alpha, momentum, baseline, round, recorder) matches."""
        server = make_server(seed=3)
        server.run(5)
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)

        restored = make_server(seed=99)  # different init on purpose
        restore_search_state(restored, path)

        assert restored.round == server.round
        assert restored.clock_s == server.clock_s
        assert restored.baseline.value == server.baseline.value
        np.testing.assert_array_equal(restored.policy.alpha, server.policy.alpha)
        sa, sb = server.supernet.state_dict(), restored.supernet.state_dict()
        for name in sa:
            np.testing.assert_array_equal(sa[name], sb[name])
        for va, vb in zip(
            server.theta_optimizer._velocity, restored.theta_optimizer._velocity
        ):
            if va is None:
                assert vb is None
            else:
                np.testing.assert_array_equal(va, vb)
        assert restored.recorder.series == server.recorder.series

    def test_restored_server_can_continue(self, tmp_path):
        server = make_server(seed=3)
        server.run(3)
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        restored = make_server(seed=3)
        restore_search_state(restored, path)
        result = restored.run_round()
        assert result.round_index == 3

    def test_pending_updates_restored(self, tmp_path):
        """In-flight straggler updates survive the checkpoint in full."""
        from repro.federated import DistributionDelay

        server = make_server(seed=3)
        server.delay_model = DistributionDelay(
            [0.2, 0.8], staleness_threshold=2, rng=np.random.default_rng(0)
        )
        server.run(2)
        assert server._pending  # stragglers in flight
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        restored = make_server(seed=3)
        restored.delay_model = DistributionDelay(
            [0.2, 0.8], staleness_threshold=2, rng=np.random.default_rng(99)
        )
        restore_search_state(restored, path)
        assert len(restored._pending) == len(server._pending)
        for got, want in zip(restored._pending, server._pending):
            assert got.origin_round == want.origin_round
            assert got.delivery_round == want.delivery_round
            assert got.mask == want.mask
            assert got.update.participant_id == want.update.participant_id
            assert got.update.reward == want.update.reward
            assert got.update.num_samples == want.update.num_samples
            assert set(got.update.gradients) == set(want.update.gradients)
            for name in want.update.gradients:
                np.testing.assert_array_equal(
                    got.update.gradients[name], want.update.gradients[name]
                )
            for name in want.update.buffers:
                np.testing.assert_array_equal(
                    got.update.buffers[name], want.update.buffers[name]
                )

    def test_rng_streams_restored(self, tmp_path):
        """Server, policy, participant, and delay-model RNGs all resume
        at the exact state they were saved in."""
        from repro.federated import DistributionDelay

        server = make_server(seed=3)
        server.delay_model = DistributionDelay(
            [0.5, 0.5], staleness_threshold=2, rng=np.random.default_rng(7)
        )
        server.run(3)
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        restored = make_server(seed=42)
        restored.delay_model = DistributionDelay(
            [0.5, 0.5], staleness_threshold=2, rng=np.random.default_rng(0)
        )
        restore_search_state(restored, path)
        assert restored.rng.bit_generator.state == server.rng.bit_generator.state
        assert (
            restored.policy.rng.bit_generator.state
            == server.policy.rng.bit_generator.state
        )
        for got, want in zip(restored.participants, server.participants):
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
        assert (
            restored.delay_model.rng.bit_generator.state
            == server.delay_model.rng.bit_generator.state
        )

    def test_delay_model_mismatch_rejected(self, tmp_path):
        """A checkpoint saved with a seeded delay model cannot be
        restored onto a server without one (the RNG stream would fork)."""
        from repro.federated import DistributionDelay

        server = make_server(seed=3)
        server.delay_model = DistributionDelay(
            [0.5, 0.5], staleness_threshold=2, rng=np.random.default_rng(7)
        )
        server.run(1)
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        with pytest.raises(ValueError, match="delay"):
            restore_search_state(make_server(seed=3), path)

    def test_extra_payload_roundtrip(self, tmp_path):
        from repro.checkpoint import read_checkpoint_meta

        server = make_server()
        server.run(1)
        path = tmp_path / "search.ckpt"
        extra = {"config": {"seed": 1}, "note": "hello"}
        save_search_state(server, path, extra=extra)
        assert read_checkpoint_meta(path)["extra"] == extra
        restored = make_server()
        assert restore_search_state(restored, path) == extra

    def test_quarantine_state_restored(self, tmp_path):
        server = make_server(seed=3)
        server.run(1)
        for _ in range(server.config.strike_limit):
            server.quarantine.record_rejection(1, server.round)
        assert server.quarantine.num_quarantined == 1
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        restored = make_server(seed=3)
        restore_search_state(restored, path)
        assert restored.quarantine.state_dict() == server.quarantine.state_dict()
        assert restored.quarantine.num_quarantined == 1

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """The write is atomic: a crash mid-save can't clobber the last
        good checkpoint, and no temp file is left behind."""
        import repro.checkpoint as checkpoint_module

        server = make_server(seed=3)
        server.run(2)
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        good = path.read_bytes()

        server.run(1)
        original = checkpoint_module._arrays_to_bytes

        def explode(arrays):
            raise RuntimeError("disk full")

        monkeypatch.setattr(checkpoint_module, "_arrays_to_bytes", explode)
        with pytest.raises(RuntimeError, match="disk full"):
            save_search_state(server, path)
        monkeypatch.setattr(checkpoint_module, "_arrays_to_bytes", original)

        assert path.read_bytes() == good  # previous checkpoint intact
        assert list(tmp_path.glob("*.tmp")) == []
        restored = make_server(seed=3)
        restore_search_state(restored, path)
        assert restored.round == 2

    def test_version_check(self, tmp_path):
        import json
        import zipfile

        server = make_server()
        path = tmp_path / "search.ckpt"
        save_search_state(server, path)
        # Corrupt the version field.
        with zipfile.ZipFile(path) as archive:
            contents = {name: archive.read(name) for name in archive.namelist()}
        meta = json.loads(contents["meta.json"])
        meta["format_version"] = 999
        contents["meta.json"] = json.dumps(meta).encode()
        with zipfile.ZipFile(path, "w") as archive:
            for name, payload in contents.items():
                archive.writestr(name, payload)
        with pytest.raises(ValueError):
            restore_search_state(make_server(), path)


# ----------------------------------------------------------------------
# The checkpoint table: every row round-trips through its owner
# ----------------------------------------------------------------------
def assert_state_equal(got, want, where="state"):
    if isinstance(want, Mapping):
        assert isinstance(got, Mapping) and sorted(got) == sorted(want), where
        for key in want:
            assert_state_equal(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_state_equal(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want, err_msg=where)
    else:
        assert got == want, where


def through_file(entries):
    """What the file would hand back: arrays via npz, the rest via JSON."""
    return {
        key: checkpoint_module._load_arrays(
            io.BytesIO(checkpoint_module._arrays_to_bytes(value))
        )
        if key.endswith(".npz")
        else json.loads(json.dumps(value))
        for key, value in entries.items()
    }


@pytest.fixture(scope="module")
def table_servers(tmp_path_factory):
    """A server that ran and a differently seeded fresh one, built so that
    every row has an owner: population mode, stragglers, fault injector."""
    plan = tmp_path_factory.mktemp("table") / "faults.json"
    plan.write_text(
        json.dumps({"seed": 0, "faults": [{"kind": "drop_update", "probability": 0.2}]})
    )
    pipelines = [
        FederatedModelSearch(
            ExperimentConfig.small(
                seed=seed,
                warmup_rounds=1,
                search_rounds=4,
                population=200,
                cohort_size=6,
                staleness_mix=(0.3, 0.4, 0.2, 0.1),
                fault_plan_path=str(plan),
            )
        )
        for seed in (5, 6)
    ]
    try:
        pipelines[0].server.run(3)
        assert pipelines[0].server._pending
        yield pipelines[0].server, pipelines[1].server
    finally:
        for pipeline in pipelines:
            pipeline.close()


@pytest.mark.parametrize("row", checkpoint_module._TABLE, ids=lambda row: row.name)
def test_table_row_round_trips(row, table_servers):
    ran, fresh = table_servers
    state = row.owner(ran).state_dict()
    assert state
    row.owner(fresh).load_state_dict(row.unpack(through_file(row.pack(state))))
    assert_state_equal(row.owner(fresh).state_dict(), state, row.name)

