"""Integration tests for the four-phase pipeline and experiment configs."""

import numpy as np
import pytest

from repro import ExperimentConfig, FederatedModelSearch
from repro.core import TABLE1_DEFAULTS
from repro.core.phases import retrain_centralized, retrain_federated
from repro.data import iid_partition, synth_cifar10
from repro.search_space import Genotype, PRIMITIVES


def tiny_config(**overrides):
    base = dict(
        num_participants=2,
        train_per_class=6,
        test_per_class=2,
        warmup_rounds=2,
        search_rounds=3,
        retrain_epochs=2,
        fl_retrain_rounds=2,
        batch_size=8,
    )
    base.update(overrides)
    return ExperimentConfig.small(**base)


class TestExperimentConfig:
    def test_table1_reference_values(self):
        """The Table I artefact must carry the paper's exact numbers."""
        assert TABLE1_DEFAULTS["batch size"] == 256
        assert TABLE1_DEFAULTS["# participant (K)"] == 10
        assert TABLE1_DEFAULTS["learning rate (theta)"] == 0.025
        assert TABLE1_DEFAULTS["learning rate (alpha)"] == 0.003
        assert TABLE1_DEFAULTS["baseline decay (alpha)"] == 0.99
        assert TABLE1_DEFAULTS["# warm-up steps"] == 10000
        assert TABLE1_DEFAULTS["# searching steps"] == 6000
        assert TABLE1_DEFAULTS["# training epochs"] == 600
        assert TABLE1_DEFAULTS["cutout"] == 16
        assert len(TABLE1_DEFAULTS) == 24  # the full two-column table

    def test_paper_profile_matches_table1(self):
        config = ExperimentConfig.paper()
        assert config.batch_size == 256
        assert config.num_participants == 10
        assert config.theta_lr == 0.025
        assert config.alpha_lr == 0.003
        assert config.fl_lr == 0.1
        assert config.fl_momentum == 0.5
        assert config.warmup_rounds == 10000
        assert config.search_rounds == 6000

    def test_small_profile_overrides(self):
        config = ExperimentConfig.small(num_participants=7, dataset="svhn")
        assert config.num_participants == 7
        assert config.dataset == "svhn"

    def test_invalid_dataset_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="mnist")

    def test_invalid_participants_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_participants=0)

    def test_num_classes(self):
        assert ExperimentConfig(dataset="cifar10").num_classes == 10
        assert ExperimentConfig(dataset="cifar100").num_classes == 20

    def test_supernet_config_derived(self):
        config = ExperimentConfig.small()
        net = config.supernet_config()
        assert net.num_classes == 10
        assert net.num_cells == config.num_cells


class TestPipelineAssembly:
    def test_iid_vs_noniid_partitioning(self):
        from repro.data import skewness

        iid = FederatedModelSearch(tiny_config(non_iid=False, train_per_class=20))
        noniid = FederatedModelSearch(tiny_config(non_iid=True, train_per_class=20))
        assert skewness(noniid.shards) > skewness(iid.shards) - 0.05

    def test_traces_attached_when_modes_given(self):
        pipeline = FederatedModelSearch(tiny_config(mobility_modes=("bus", "car")))
        assert all(p.trace is not None for p in pipeline.participants)
        assert {p.trace.mode for p in pipeline.participants} == {"bus", "car"}

    def test_no_traces_by_default(self):
        pipeline = FederatedModelSearch(tiny_config())
        assert all(p.trace is None for p in pipeline.participants)

    def test_staleness_mix_builds_distribution_delay(self):
        from repro.federated import DistributionDelay, HardSync

        hard = FederatedModelSearch(tiny_config())
        assert isinstance(hard.server.delay_model, HardSync)
        soft = FederatedModelSearch(tiny_config(staleness_mix=(0.5, 0.4, 0.1)))
        assert isinstance(soft.server.delay_model, DistributionDelay)

    def test_seed_reproducibility(self):
        a = FederatedModelSearch(tiny_config(seed=3))
        b = FederatedModelSearch(tiny_config(seed=3))
        a.search()
        b.search()
        np.testing.assert_allclose(a.policy.alpha, b.policy.alpha)


class TestPhases:
    def test_warmup_freezes_alpha_then_search_moves_it(self):
        pipeline = FederatedModelSearch(tiny_config())
        alpha0 = pipeline.policy.alpha.copy()
        pipeline.warm_up()
        np.testing.assert_array_equal(alpha0, pipeline.policy.alpha)
        pipeline.search()
        assert not np.allclose(alpha0, pipeline.policy.alpha)

    def test_derive_after_search(self):
        pipeline = FederatedModelSearch(tiny_config())
        pipeline.search()
        genotype = pipeline.derive()
        assert all(op in PRIMITIVES for op in genotype.normal)

    def test_retrain_centralized(self):
        config = tiny_config()
        train, test = synth_cifar10(
            seed=0, train_per_class=6, test_per_class=2, image_size=8
        )
        genotype = Genotype(
            ("sep_conv_3x3",) * config.supernet_config().num_edges,
            ("max_pool_3x3",) * config.supernet_config().num_edges,
        )
        model, recorder = retrain_centralized(genotype, config, train, test)
        assert len(recorder.get("train_accuracy")) == config.retrain_epochs
        assert len(recorder.get("val_accuracy")) == config.retrain_epochs
        assert model.config.affine

    def test_retrain_federated(self):
        config = tiny_config()
        train, _ = synth_cifar10(
            seed=0, train_per_class=6, test_per_class=2, image_size=8
        )
        shards = iid_partition(train, 2, rng=np.random.default_rng(0))
        genotype = Genotype(
            ("skip_connect",) * config.supernet_config().num_edges,
            ("avg_pool_3x3",) * config.supernet_config().num_edges,
        )
        model, recorder = retrain_federated(genotype, config, shards)
        assert len(recorder.get("train_accuracy")) == config.fl_retrain_rounds

    def test_retrain_invalid_mode(self):
        pipeline = FederatedModelSearch(tiny_config())
        genotype = pipeline.derive()
        with pytest.raises(ValueError):
            pipeline.retrain(genotype, mode="quantum")


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["federated", "centralized"])
    def test_full_run(self, mode):
        pipeline = FederatedModelSearch(tiny_config(seed=1))
        report = pipeline.run(retrain_mode=mode)
        assert 0.0 <= report.test_accuracy <= 1.0
        assert report.model_parameters > 0
        assert len(report.warmup_results) == 2
        assert len(report.search_results) == 3
        assert report.mean_submodel_bytes > 0
        assert len(report.genotype.normal) == pipeline.config.supernet_config().num_edges

    def test_full_run_noniid_svhn(self):
        pipeline = FederatedModelSearch(
            tiny_config(dataset="svhn", non_iid=True, seed=2)
        )
        report = pipeline.run()
        assert 0.0 <= report.test_accuracy <= 1.0

    def test_genotype_transfers_between_datasets(self):
        """The Sec. VI-E transfer scenario: search on cifar10, retrain the
        genotype on cifar100 (different class count)."""
        source = FederatedModelSearch(tiny_config(seed=3))
        source.search()
        genotype = source.derive()
        target_config = tiny_config(dataset="cifar100", seed=4)
        train, test = (
            FederatedModelSearch(target_config).train_set,
            FederatedModelSearch(target_config).test_set,
        )
        model, _ = retrain_centralized(genotype, target_config, train, test)
        assert model.config.num_classes == 20


class TestComputeDtypeIsPerPipeline:
    @pytest.mark.parametrize(
        "backend,workers", [("serial", 0), ("socket", 2)], ids=["serial", "socket"]
    )
    def test_pipelines_built_together_keep_their_own_dtype(self, backend, workers):
        """A float32 and a float64 pipeline, both constructed before
        either runs, each give the digest they give alone: building one
        pipeline never changes how another computes."""
        from .test_golden_digests import finish_and_digest

        def build(dtype):
            return FederatedModelSearch(
                tiny_config(
                    seed=0,
                    num_participants=4,
                    backend=backend,
                    num_workers=workers,
                    compute_dtype=dtype,
                )
            )

        dtypes = ("float32", "float64")
        alone = {dtype: finish_and_digest(build(dtype)) for dtype in dtypes}
        assert alone["float32"] != alone["float64"]
        together = {dtype: build(dtype) for dtype in dtypes}
        for dtype in dtypes:
            assert finish_and_digest(together[dtype]) == alone[dtype], dtype
