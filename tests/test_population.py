"""Population-scale rounds (repro.population) and their integrations.

Covers the contracts the population subsystem makes:

* registry laziness — registering 100k participants is O(population)
  ints and touches **no shard data**; shards exist only for
  materialised cohort members, and the batch-seed stream survives
  materialise/discard cycles (counter-derived, not object-held);
* on-demand shard derivation — a shard is a pure function of its
  :class:`ShardDescriptor`, identical on every call;
* cohort determinism — same seed ⇒ identical cohort sequence across
  serial/process/socket backends, with telemetry/tracing on or off,
  and across a checkpoint/restore cycle (sampler + churn RNG states
  are captured);
* churn plans — JSON round-trip, validation errors, deterministic
  execution;
* population checkpointing — resumed runs are bit-identical, and a
  population/legacy checkpoint mismatch is a hard error.
"""

import numpy as np
import pytest

from repro.checkpoint import restore_search_state, save_search_state
from repro.controller import ArchitecturePolicy
from repro.core import ExperimentConfig
from repro.data import (
    ArrayDataset,
    ShardDescriptor,
    derive_shard,
    derive_shard_indices,
    synth_cifar10,
)
from repro.federated import FederatedSearchServer, Participant, build_backend
from repro.population import (
    ChurnModel,
    ChurnPlan,
    ParticipantRegistry,
    PopulationContext,
    build_population,
    build_sampler,
    derive_batch_seed,
)
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import Telemetry

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def tiny_train():
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    return train


class CountingDataset(ArrayDataset):
    """An ArrayDataset that counts shard materialisations (``subset``)."""

    def __post_init__(self):
        super().__post_init__()
        self.subset_calls = 0

    def subset(self, indices):
        self.subset_calls += 1
        return super().subset(indices)


def counting_context(train=None, seed=0):
    base = train or tiny_train()
    dataset = CountingDataset(base.images, base.labels, base.num_classes)
    context = PopulationContext(
        train_set=dataset,
        base_seed=seed,
        scheme="iid",
        shard_size=16,
        alpha=0.5,
        batch_size=8,
    )
    return dataset, context


def make_config(population=64, cohort=4, seed=9, **kwargs):
    return ExperimentConfig(
        population=population,
        cohort_size=cohort,
        seed=seed,
        batch_size=8,
        **kwargs,
    )


def make_pop_server(
    backend_name="serial",
    population=32,
    cohort=3,
    seed=9,
    churn_plan=None,
    telemetry=None,
):
    config = make_config(population=population, cohort=cohort, seed=seed,
                         churn_plan=churn_plan)
    pop = build_population(config, tiny_train(), telemetry=telemetry)
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    backend = build_backend(
        backend_name, [], TINY, num_workers=2, population=pop.context
    )
    return FederatedSearchServer(
        supernet,
        policy,
        [],
        rng=np.random.default_rng(seed + 4),
        backend=backend,
        population=pop,
        telemetry=telemetry,
    )


def run_and_capture(server, rounds=2):
    try:
        server.run(rounds)
    finally:
        close = getattr(server.backend, "close", None)
        if close is not None:
            close()
    theta = {
        name: np.array(p.data, copy=True)
        for name, p in server.supernet.named_parameters()
    }
    return theta, np.array(server.policy.alpha, copy=True)


def assert_capture_equal(a, b):
    theta_a, alpha_a = a
    theta_b, alpha_b = b
    assert list(theta_a) == list(theta_b)
    for name in theta_a:
        np.testing.assert_array_equal(theta_a[name], theta_b[name], err_msg=name)
    np.testing.assert_array_equal(alpha_a, alpha_b)


# ----------------------------------------------------------------------
# Registry laziness (the O(cohort) memory contract)
# ----------------------------------------------------------------------
class TestRegistryLaziness:
    def test_100k_registry_touches_no_shard_data(self):
        dataset, context = counting_context()
        registry = ParticipantRegistry(100_000, context)
        assert registry.num_registered == 100_000
        assert registry.materializations == 0
        assert dataset.subset_calls == 0
        # Records are a handful of scalar columns — ~25 bytes/participant.
        record_bytes = (
            registry._state.nbytes
            + registry._draws.nbytes
            + registry._dormant_until.nbytes
            + registry._joined_round.nbytes
        )
        assert record_bytes <= 32 * 100_000

    def test_sampling_does_not_materialize(self):
        dataset, context = counting_context()
        registry = ParticipantRegistry(10_000, context)
        sampler = build_sampler("uniform", 100, 0)
        cohort = sampler.sample(registry, 0)
        assert len(cohort) == 100
        assert dataset.subset_calls == 0
        materialized = registry.materialize_cohort(cohort)
        assert len(materialized) == 100
        assert dataset.subset_calls == 100
        assert registry.materializations == 100

    def test_batch_seed_stream_survives_discard(self):
        _, context = counting_context()
        registry = ParticipantRegistry(8, context)
        p = registry.materialize(3)
        first = [p.draw_batch_seed() for _ in range(3)]
        del p
        p_again = registry.materialize(3)
        rest = [p_again.draw_batch_seed() for _ in range(2)]

        fresh = ParticipantRegistry(8, context)
        q = fresh.materialize(3)
        straight = [q.draw_batch_seed() for _ in range(5)]
        assert first + rest == straight

    def test_batch_seed_is_pure_function_of_counter(self):
        assert derive_batch_seed(7, 3, 0) == derive_batch_seed(7, 3, 0)
        assert derive_batch_seed(7, 3, 0) != derive_batch_seed(7, 3, 1)
        assert derive_batch_seed(7, 3, 0) != derive_batch_seed(7, 4, 0)

    def test_lifecycle_transitions(self):
        _, context = counting_context()
        registry = ParticipantRegistry(6, context)
        registry.depart(np.array([1]))
        registry.set_dormant(np.array([2]), np.array([5]))
        eligible = set(registry.selectable_ids(0).tolist())
        assert eligible == {0, 3, 4, 5}
        assert len(registry.wake_due(4)) == 0
        assert registry.wake_due(5).tolist() == [2]
        assert 2 in set(registry.selectable_ids(5).tolist())
        new = registry.register(2, round_t=7)
        assert new.tolist() == [6, 7]
        assert registry.record(6).joined_round == 7
        assert registry.record(1).state == "departed"


# ----------------------------------------------------------------------
# On-demand shard derivation (satellite: no eager partitioning)
# ----------------------------------------------------------------------
class TestShardDerivation:
    def test_same_descriptor_same_shard(self):
        train = tiny_train()
        desc = ShardDescriptor(scheme="iid", seed=5, participant=3, size=16, alpha=0.5)
        a = derive_shard_indices(train.labels, train.num_classes, desc)
        b = derive_shard_indices(train.labels, train.num_classes, desc)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 16
        assert np.all(a[:-1] <= a[1:])  # sorted, matching eager partitioners

    def test_different_participants_differ(self):
        train = tiny_train()
        shards = [
            derive_shard_indices(
                train.labels,
                train.num_classes,
                ShardDescriptor(scheme="iid", seed=5, participant=k, size=16, alpha=0.5),
            )
            for k in range(4)
        ]
        assert any(not np.array_equal(shards[0], s) for s in shards[1:])

    def test_dirichlet_scheme(self):
        train = tiny_train()
        desc = ShardDescriptor(
            scheme="dirichlet", seed=5, participant=0, size=20, alpha=0.3
        )
        shard = derive_shard(train, desc)
        assert len(shard) == 20

    def test_size_clamped_to_dataset(self):
        train = tiny_train()
        desc = ShardDescriptor(
            scheme="iid", seed=5, participant=0, size=10_000, alpha=0.5
        )
        shard = derive_shard(train, desc)
        assert len(shard) == len(train)

    def test_context_spec_is_reproducible(self):
        _, context = counting_context()
        a = context.spec(11)
        b = context.spec(11)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)
        assert a.device.name == b.device.name
        assert a.batch_size == b.batch_size

    def test_worker_spec_cache_is_bounded_fifo(self, monkeypatch):
        """The one rule both worker kinds (pool process, socket daemon)
        resolve a task's spec by: installed first, else derived and
        cached, oldest evicted at the limit."""
        from repro.federated import executor

        monkeypatch.setattr(executor, "_SPEC_CACHE_LIMIT", 3)
        _, context = counting_context()
        specs = {}
        with pytest.raises(KeyError, match="no spec for participant 7"):
            executor.resolve_spec(specs, None, 7)
        for k in (1, 2, 3):
            executor.resolve_spec(specs, context, k)
        assert executor.resolve_spec(specs, None, 2) is specs[2]  # installed
        executor.resolve_spec(specs, context, 4)
        assert list(specs) == [2, 3, 4]


# ----------------------------------------------------------------------
# Cohort determinism
# ----------------------------------------------------------------------
class TestCohortDeterminism:
    def test_same_seed_same_cohort_sequence(self):
        config = make_config(population=200, cohort=10, seed=4)
        a = build_population(config, tiny_train())
        b = build_population(config, tiny_train())
        for t in range(5):
            np.testing.assert_array_equal(a.begin_round(t), b.begin_round(t))

    def test_cohorts_are_sorted_and_unique(self):
        config = make_config(population=100, cohort=20, seed=4)
        pop = build_population(config, tiny_train())
        cohort = pop.begin_round(0)
        assert np.all(cohort[:-1] < cohort[1:])

    def test_cohort_clamped_to_population(self):
        config = make_config(population=5, cohort=50, seed=4)
        pop = build_population(config, tiny_train())
        assert len(pop.begin_round(0)) == 5

    @pytest.mark.parametrize("backend_name", ["process", "socket"])
    def test_backends_bit_identical_to_serial(self, backend_name):
        reference = run_and_capture(make_pop_server("serial"), rounds=2)
        other = run_and_capture(make_pop_server(backend_name), rounds=2)
        assert_capture_equal(reference, other)

    def test_telemetry_and_tracing_do_not_perturb(self):
        reference = run_and_capture(make_pop_server("serial"), rounds=2)
        telemetry = Telemetry()
        telemetry.tracing = True
        traced = run_and_capture(
            make_pop_server("serial", telemetry=telemetry), rounds=2
        )
        assert_capture_equal(reference, traced)

    def test_weighted_sampler_prefers_fast_devices(self):
        config = make_config(
            population=200, cohort=20, seed=4, cohort_strategy="weighted"
        )
        pop = build_population(config, tiny_train())
        counts = np.zeros(2, dtype=np.int64)
        for t in range(40):
            cohort = pop.begin_round(t)
            # Device assignment alternates by id: even ids are the fast
            # GTX 1080 Ti, odd ids the 4x slower Jetson TX2.
            counts[0] += int(np.sum(cohort % 2 == 0))
            counts[1] += int(np.sum(cohort % 2 == 1))
        assert counts[0] > 1.5 * counts[1]

    def test_uniform_sampler_is_roughly_uniform(self):
        config = make_config(population=200, cohort=20, seed=4)
        pop = build_population(config, tiny_train())
        counts = np.zeros(2, dtype=np.int64)
        for t in range(40):
            cohort = pop.begin_round(t)
            counts[0] += int(np.sum(cohort % 2 == 0))
            counts[1] += int(np.sum(cohort % 2 == 1))
        assert counts[0] < 1.3 * counts[1]
        assert counts[1] < 1.3 * counts[0]


# ----------------------------------------------------------------------
# Churn plans
# ----------------------------------------------------------------------
class TestChurnPlan:
    def test_json_round_trip(self, tmp_path):
        plan = ChurnPlan(
            join_rate=1.5,
            departure_prob=0.01,
            dropout_prob=0.1,
            dropout_rounds_min=2,
            dropout_rounds_max=4,
            round_start=1,
            round_end=10,
            seed=3,
        )
        path = tmp_path / "churn.json"
        plan.save(path)
        assert ChurnPlan.load(path) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown churn plan key"):
            ChurnPlan.from_dict({"join_rate": 1.0, "typo_key": 2})

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="invalid churn plan JSON"):
            ChurnPlan.from_json("{not json")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="dropout_prob"):
            ChurnPlan(dropout_prob=1.5)
        with pytest.raises(ValueError, match="departure_prob"):
            ChurnPlan(departure_prob=-0.1)

    def test_dropout_window_ordering(self):
        with pytest.raises(ValueError, match="dropout_rounds_max"):
            ChurnPlan(dropout_rounds_min=3, dropout_rounds_max=2)

    def test_round_window(self):
        with pytest.raises(ValueError, match="round_end"):
            ChurnPlan(round_start=5, round_end=5)
        plan = ChurnPlan(round_start=2, round_end=4)
        assert not plan.active(1)
        assert plan.active(2)
        assert plan.active(3)
        assert not plan.active(4)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read churn plan"):
            ChurnPlan.load(tmp_path / "absent.json")

    def test_churn_is_deterministic(self):
        plan = ChurnPlan(
            join_rate=1.0, departure_prob=0.05, dropout_prob=0.2, seed=6
        )
        _, ctx_a = counting_context()
        _, ctx_b = counting_context()
        reg_a = ParticipantRegistry(300, ctx_a)
        reg_b = ParticipantRegistry(300, ctx_b)
        model_a, model_b = ChurnModel(plan), ChurnModel(plan)
        for t in range(6):
            assert model_a.advance(reg_a, t) == model_b.advance(reg_b, t)
        assert reg_a.counts() == reg_b.counts()

    def test_dormant_participants_return(self):
        plan = ChurnPlan(dropout_prob=0.5, dropout_rounds_min=1,
                         dropout_rounds_max=2, round_end=1, seed=6)
        _, context = counting_context()
        registry = ParticipantRegistry(100, context)
        model = ChurnModel(plan)
        stats = model.advance(registry, 0)
        assert stats["dropped_out"] > 0
        assert registry.counts()["dormant"] == stats["dropped_out"]
        # The plan window closed; flaps end and everyone comes back.
        for t in range(1, 4):
            model.advance(registry, t)
        assert registry.counts()["dormant"] == 0
        assert registry.counts()["active"] == 100


# ----------------------------------------------------------------------
# Checkpointing the population subsystem
# ----------------------------------------------------------------------
class TestPopulationCheckpoint:
    def test_resume_is_bit_identical(self, tmp_path):
        plan = ChurnPlan(join_rate=0.5, departure_prob=0.02, dropout_prob=0.1, seed=7)
        plan_path = tmp_path / "churn.json"
        plan.save(plan_path)
        plan_arg = str(plan_path)

        reference = run_and_capture(
            make_pop_server("serial", churn_plan=plan_arg), rounds=4
        )

        half = make_pop_server("serial", churn_plan=plan_arg)
        half.run(2)
        ckpt = tmp_path / "pop.ckpt"
        save_search_state(half, ckpt)

        resumed = make_pop_server("serial", churn_plan=plan_arg)
        restore_search_state(resumed, ckpt)
        assert_capture_equal(reference, run_and_capture(resumed, rounds=2))

    def test_population_state_round_trips(self, tmp_path):
        server = make_pop_server("serial")
        server.run(2)
        ckpt = tmp_path / "pop.ckpt"
        save_search_state(server, ckpt)
        before = server.population.state_dict()

        fresh = make_pop_server("serial")
        restore_search_state(fresh, ckpt)
        after = fresh.population.state_dict()
        for key in ("state", "draws", "dormant_until", "joined_round"):
            np.testing.assert_array_equal(
                before["registry"][key], after["registry"][key], err_msg=key
            )
        assert before["sampler"] == after["sampler"]

    def test_mismatch_is_rejected(self, tmp_path):
        pop_server = make_pop_server("serial")
        pop_server.run(1)
        pop_ckpt = tmp_path / "pop.ckpt"
        save_search_state(pop_server, pop_ckpt)

        train = tiny_train()
        plain_server = FederatedSearchServer(
            Supernet(TINY, rng=np.random.default_rng(1)),
            ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(2)),
            [Participant(0, train, batch_size=8, rng=np.random.default_rng(3))],
            rng=np.random.default_rng(4),
        )
        with pytest.raises(ValueError):
            restore_search_state(plain_server, pop_ckpt)

        plain_server.run(1)
        plain_ckpt = tmp_path / "plain.ckpt"
        save_search_state(plain_server, plain_ckpt)
        with pytest.raises(ValueError):
            restore_search_state(make_pop_server("serial"), plain_ckpt)


# ----------------------------------------------------------------------
# Config validation + population-off behaviour
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_defaults_keep_population_off(self):
        assert ExperimentConfig().population == 0

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            ExperimentConfig(population=-1)

    def test_cohort_size_must_be_positive(self):
        with pytest.raises(ValueError, match="cohort_size"):
            ExperimentConfig(population=10, cohort_size=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="cohort_strategy"):
            ExperimentConfig(population=10, cohort_strategy="psychic")

    def test_churn_plan_requires_population(self):
        with pytest.raises(ValueError, match="churn_plan"):
            ExperimentConfig(churn_plan="plan.json")

    def test_server_requires_participants_or_population(self):
        supernet = Supernet(TINY, rng=np.random.default_rng(1))
        policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(2))
        with pytest.raises(ValueError, match="participant"):
            FederatedSearchServer(supernet, policy, [], rng=np.random.default_rng(3))
