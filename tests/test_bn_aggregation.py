"""Tests for batch-norm statistics aggregation during the search."""

import numpy as np
import pytest

from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.federated import (
    FederatedSearchServer,
    LocalStepTask,
    Participant,
    SearchServerConfig,
)
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_server(seed=0):
    train, test = synth_cifar10(
        seed=1, train_per_class=10, test_per_class=4, image_size=8
    )
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    server = FederatedSearchServer(
        supernet,
        policy,
        participants,
        rng=np.random.default_rng(seed + 4),
    )
    return server, test


def run_step(server, mask):
    """One hand-built task for participant 0, run in-process."""
    task = LocalStepTask(
        participant_id=0,
        round_index=0,
        mask=mask,
        state=server.supernet.submodel_state(mask),
        batch_seed=0,
    )
    return server.participants[0].execute_task(task, TINY)


def buffer_snapshot(supernet):
    return {name: np.array(value, copy=True) for name, value in supernet.named_buffers()}


class TestParticipantBuffers:
    def test_update_carries_buffers(self):
        server, _ = make_server()
        mask = server.policy.sample_mask()
        sub = server.supernet.extract_submodel(mask)
        update = run_step(server, mask)
        assert update.buffers
        assert set(update.buffers) == {name for name, _ in sub.named_buffers()}

    def test_buffers_are_copies(self):
        server, _ = make_server()
        mask = server.policy.sample_mask()
        update = run_step(server, mask)
        name = next(iter(update.buffers))
        update.buffers[name][...] = 777.0
        assert not np.allclose(dict(server.supernet.named_buffers())[name], 777.0)
        assert not np.allclose(run_step(server, mask).buffers[name], 777.0)


class TestServerAggregation:
    def test_enabled_moves_stem_buffers(self):
        server, _ = make_server()
        before = buffer_snapshot(server.supernet)
        server.run_round()
        after = buffer_snapshot(server.supernet)
        # The stem BN is part of every sub-model, so its stats must move.
        stem_keys = [k for k in before if k.startswith("stem.")]
        assert stem_keys
        assert any(not np.allclose(before[k], after[k]) for k in stem_keys)

    def test_unsampled_op_buffers_untouched(self):
        server, _ = make_server()
        # Force the policy to always sample op 4 so op-5 buffers never move.
        server.policy.alpha[:, :, :] = -20.0
        server.policy.alpha[:, :, 4] = 20.0
        before = buffer_snapshot(server.supernet)
        server.run_round()
        after = buffer_snapshot(server.supernet)
        op5_keys = [k for k in before if ".edges." in k and k.split(".")[4] == "5"]
        assert op5_keys
        for k in op5_keys:
            np.testing.assert_array_equal(before[k], after[k])


class TestBufferBoundary:
    def test_mis_shaped_buffers_are_rejected_and_stay_arena_views(self):
        """A finite but mis-shaped running mean must not reach the
        supernet: the round rejects every update, and every supernet
        buffer is still a view into the arena checkpoints read."""
        server, _ = make_server()
        run_tasks = server.backend.run_tasks

        def run_corrupted(tasks):
            results = run_tasks(tasks)
            for result in results:
                result.update.buffers["stem.1.running_mean"] = np.zeros(1)
            return results

        server.backend.run_tasks = run_corrupted
        before = buffer_snapshot(server.supernet)
        result = server.run_round()
        assert result.num_rejected == len(server.participants)
        assert result.num_fresh == 0
        for name, value in server.supernet.named_buffers():
            assert np.shares_memory(value, server.arena.data), name
            np.testing.assert_array_equal(value, before[name])


class TestEvaluateArchitecture:
    def test_returns_valid_accuracy(self):
        server, test = make_server()
        server.run(3)
        accuracy = server.evaluate_architecture(test)
        assert 0.0 <= accuracy <= 1.0

    def test_explicit_mask(self):
        server, test = make_server()
        server.run(2)
        mask = server.policy.sample_mask()
        accuracy = server.evaluate_architecture(test, mask=mask)
        assert 0.0 <= accuracy <= 1.0

    def test_eval_tracks_search_progress(self):
        """After enough rounds, eval-mode accuracy of the mode architecture
        beats chance — only possible if BN stats were aggregated."""
        train, test = synth_cifar10(
            seed=1, train_per_class=20, test_per_class=6, image_size=8
        )
        shards = iid_partition(train, 4, rng=np.random.default_rng(0))
        supernet = Supernet(TINY, rng=np.random.default_rng(4))
        policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(5))
        participants = [
            Participant(k, s, batch_size=16, rng=np.random.default_rng(13 + k))
            for k, s in enumerate(shards)
        ]
        server = FederatedSearchServer(
            supernet,
            policy,
            participants,
            config=SearchServerConfig(theta_lr=0.1),
            rng=np.random.default_rng(7),
        )
        server.run(80)
        accuracy = server.evaluate_architecture(test)
        assert accuracy > 0.2  # chance is 0.10; measured ~0.4
