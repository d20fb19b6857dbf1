"""Integration tests for the federated search server (Alg. 1)."""

import numpy as np
import pytest

from repro.controller import ArchitecturePolicy
from repro.data import dirichlet_partition, iid_partition, synth_cifar10
from repro.federated import (
    DistributionDelay,
    FederatedSearchServer,
    HardSync,
    Participant,
    SearchServerConfig,
)
from repro.network import BandwidthTrace, generate_trace
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def build_server(
    num_participants=3,
    config=None,
    delay_model=None,
    seed=0,
    with_traces=False,
    dataset_seed=0,
):
    rng = np.random.default_rng(seed)
    train, _ = synth_cifar10(
        seed=dataset_seed, train_per_class=12, test_per_class=2, image_size=8
    )
    shards = iid_partition(train, num_participants, rng=rng)
    participants = []
    for k, shard in enumerate(shards):
        trace = (
            generate_trace("foot", 200, np.random.default_rng(100 + k))
            if with_traces
            else None
        )
        participants.append(
            Participant(k, shard, batch_size=8, trace=trace, rng=np.random.default_rng(k))
        )
    supernet = Supernet(TINY, rng=rng)
    policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
    return FederatedSearchServer(
        supernet, policy, participants, config=config, delay_model=delay_model, rng=rng
    )


class TestServerBasics:
    def test_round_produces_diagnostics(self):
        server = build_server()
        result = server.run_round()
        assert result.round_index == 0
        assert result.num_fresh == 3
        assert result.num_dropped == 0
        assert 0.0 <= result.mean_reward <= 1.0
        assert result.policy_entropy > 0

    def test_round_counter_advances(self):
        server = build_server()
        server.run(3)
        assert server.round == 3
        assert len(server.recorder.get("train_accuracy")) == 3

    def test_theta_updates_each_round(self):
        server = build_server()
        # the server's supernet lives in its arena: state_dict() is a
        # live view, so a before/after comparison needs a real copy
        before = {k: np.array(v) for k, v in server.supernet.state_dict().items()}
        server.run_round()
        after = server.supernet.state_dict()
        changed = [k for k in before if not np.allclose(before[k], after[k])]
        assert changed, "supernet weights must move"

    def test_alpha_updates_each_round(self):
        server = build_server()
        before = server.policy.alpha.copy()
        server.run_round()
        assert not np.allclose(before, server.policy.alpha)

    def test_warmup_mode_freezes_alpha(self):
        config = SearchServerConfig(update_alpha=False)
        server = build_server(config=config)
        before = server.policy.alpha.copy()
        server.run_round()
        np.testing.assert_array_equal(before, server.policy.alpha)

    def test_alpha_only_mode_freezes_theta(self):
        config = SearchServerConfig(update_theta=False)
        server = build_server(config=config)
        # the server's supernet lives in its arena: state_dict() is a
        # live view, so a before/after comparison needs a real copy
        before = {k: np.array(v) for k, v in server.supernet.state_dict().items()}
        server.run_round()
        after = server.supernet.state_dict()
        for k in before:
            if k.endswith("running_mean") or k.endswith("running_var"):
                continue  # buffers are not optimizer-managed
            np.testing.assert_array_equal(before[k], after[k])

    def test_derive_returns_genotype(self):
        server = build_server()
        server.run(2)
        genotype = server.derive()
        assert len(genotype.normal) == TINY.num_edges

    def test_mismatched_policy_rejected(self):
        rng = np.random.default_rng(0)
        train, _ = synth_cifar10(train_per_class=4, test_per_class=2, image_size=8)
        shards = iid_partition(train, 2, rng=rng)
        participants = [Participant(k, s, batch_size=4) for k, s in enumerate(shards)]
        supernet = Supernet(TINY, rng=rng)
        wrong_policy = ArchitecturePolicy(TINY.num_edges + 1, rng=rng)
        with pytest.raises(ValueError):
            FederatedSearchServer(supernet, wrong_policy, participants)

    def test_no_participants_rejected(self):
        rng = np.random.default_rng(0)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        with pytest.raises(ValueError):
            FederatedSearchServer(supernet, policy, [])

    def test_invalid_staleness_policy_rejected(self):
        with pytest.raises(ValueError):
            SearchServerConfig(staleness_policy="hope")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            SearchServerConfig(compensation_lambda=-0.5)


class TestStaleness:
    def severe_delay(self, seed=0):
        return DistributionDelay(
            [0.3, 0.4, 0.2, 0.1], staleness_threshold=2, rng=np.random.default_rng(seed)
        )

    def test_stale_updates_arrive_later(self):
        config = SearchServerConfig(staleness_threshold=2)
        server = build_server(num_participants=4, config=config, delay_model=self.severe_delay())
        results = server.run(8)
        stale_used = sum(r.num_stale_used for r in results)
        dropped = sum(r.num_dropped for r in results)
        fresh = sum(r.num_fresh for r in results)
        assert fresh > 0
        assert stale_used > 0, "severe staleness mix must produce stale arrivals"
        assert dropped > 0, "the 10% overflow bucket must be dropped"

    def test_throw_policy_drops_all_stale(self):
        config = SearchServerConfig(staleness_policy="throw", staleness_threshold=2)
        server = build_server(num_participants=4, config=config, delay_model=self.severe_delay(1))
        results = server.run(8)
        assert sum(r.num_stale_used for r in results) == 0
        assert sum(r.num_dropped for r in results) > 0

    def test_use_policy_applies_stale_raw(self):
        config = SearchServerConfig(staleness_policy="use", staleness_threshold=2)
        server = build_server(num_participants=4, config=config, delay_model=self.severe_delay(2))
        results = server.run(8)
        assert sum(r.num_stale_used for r in results) > 0

    def test_hard_sync_never_stale(self):
        server = build_server(num_participants=3, delay_model=HardSync())
        results = server.run(5)
        assert all(r.num_stale_used == 0 and r.num_dropped == 0 for r in results)

    def test_memory_pools_evicted(self):
        config = SearchServerConfig(staleness_threshold=1)
        server = build_server(config=config, delay_model=self.severe_delay(3))
        server.run(6)
        # Only rounds within the threshold window survive.
        assert len(server.pools) <= 2 + 1

    def test_compensate_and_use_diverge(self):
        """The three staleness policies must lead to different search
        trajectories under identical randomness.

        Since dispatch went message-passing (PR 2), the server RNG stream
        no longer depends on sampled masks, so nearby policies do not
        decohere chaotically: compensate-vs-use differ by the (small)
        compensation correction itself, while throw's dropped updates
        shift α far more.
        """
        outcomes = {}
        for policy in ("compensate", "use", "throw"):
            config = SearchServerConfig(staleness_policy=policy, staleness_threshold=2)
            server = build_server(
                num_participants=4, config=config, delay_model=self.severe_delay(7), seed=5
            )
            server.run(6)
            outcomes[policy] = server.policy.alpha.copy()
        assert not np.array_equal(outcomes["compensate"], outcomes["use"])
        assert not np.allclose(outcomes["use"], outcomes["throw"])


class TestAdaptiveTransmission:
    def test_transmission_latency_recorded_with_traces(self):
        server = build_server(with_traces=True)
        result = server.run_round()
        assert result.max_transmission_latency_s > 0

    def test_no_traces_means_zero_latency(self):
        server = build_server(with_traces=False)
        result = server.run_round()
        assert result.max_transmission_latency_s == 0.0

    def test_adaptive_strategy_beats_random_on_average(self):
        def mean_latency(strategy, seeds=range(3)):
            values = []
            for s in seeds:
                config = SearchServerConfig(transmission_strategy=strategy)
                server = build_server(config=config, with_traces=True, seed=s)
                results = server.run(4)
                values.extend(r.max_transmission_latency_s for r in results)
            return np.mean(values)

        assert mean_latency("adaptive") <= mean_latency("random") * 1.05


class TestSearchLearns:
    def test_search_improves_training_accuracy(self):
        """Joint α/θ optimisation must lift participant accuracy well above
        chance (0.1) on an easy synthetic dataset — the qualitative content
        of paper Figs. 3-4."""
        server = build_server(num_participants=4, seed=11, dataset_seed=2)
        server.config.theta_lr = 0.05
        server.theta_optimizer.lr = 0.05
        for participant in server.participants:
            participant.loader.batch_size = 16
        results = server.run(70)
        early = np.mean([r.mean_reward for r in results[:10]])
        late = np.mean([r.mean_reward for r in results[-10:]])
        assert late > early + 0.05
        assert late > 0.2

    def test_entropy_decreases_during_search(self):
        server = build_server(num_participants=4, seed=13)
        server.run(25)
        entropies = server.recorder.get("policy_entropy")
        assert entropies[-1] < entropies[0]
