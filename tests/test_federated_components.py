"""Tests for federated building blocks: memory, compensation, participant,
synchronisation, FedAvg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.data import ArrayDataset, iid_partition, synth_cifar10
from repro.evaluation import CurveRecorder, batch_accuracy, evaluate_accuracy
from repro.federated import (
    GTX_1080TI,
    JETSON_TX2,
    DeviceProfile,
    DistributionDelay,
    FedAvgConfig,
    FedAvgTrainer,
    HardSync,
    LatencyDrivenDelay,
    LocalStepTask,
    MemoryPools,
    Participant,
    compensate_alpha_gradient,
    compensate_weight_gradients,
)
from repro.network import BandwidthTrace
from repro.search_space import ArchitectureMask, Supernet, SupernetConfig

RNG = np.random.default_rng(0)
TINY = SupernetConfig(num_classes=4, init_channels=4, num_cells=2, steps=1)


def tiny_mask(seed=0):
    rng = np.random.default_rng(seed)
    e = TINY.num_edges
    return ArchitectureMask.from_arrays(
        rng.integers(0, 8, size=e), rng.integers(0, 8, size=e)
    )


def tiny_dataset(n=24, classes=4, size=8):
    rng = np.random.default_rng(3)
    return ArrayDataset(
        rng.normal(size=(n, 3, size, size)), rng.integers(0, classes, size=n), classes
    )


class TestMemoryPools:
    def test_save_and_retrieve(self):
        pools = MemoryPools(staleness_threshold=2)
        theta = {"w": np.ones(3)}
        alpha = np.zeros((2, 2, 8))
        pools.save_round(0, theta, alpha)
        pools.save_mask(0, 1, tiny_mask())
        np.testing.assert_array_equal(pools.theta(0)["w"], np.ones(3))
        np.testing.assert_array_equal(pools.alpha(0), alpha)
        assert pools.mask(0, 1) == tiny_mask()

    def test_snapshots_are_copies(self):
        pools = MemoryPools(2)
        theta = {"w": np.ones(3)}
        alpha = np.zeros((2, 1, 8))
        pools.save_round(0, theta, alpha)
        theta["w"][...] = 99
        alpha[...] = 99
        assert (pools.theta(0)["w"] == 1).all()
        assert (pools.alpha(0) == 0).all()

    def test_eviction(self):
        pools = MemoryPools(staleness_threshold=1)
        for t in range(4):
            pools.save_round(t, {"w": np.full(1, t)}, np.zeros((2, 1, 8)))
        evicted = pools.evict_older_than(3)
        assert evicted == 2  # rounds 0 and 1 are older than 3 - 1
        assert not pools.has_round(0)
        assert pools.has_round(2) and pools.has_round(3)

    def test_missing_round_raises(self):
        pools = MemoryPools(2)
        with pytest.raises(KeyError):
            pools.theta(7)
        with pytest.raises(KeyError):
            pools.alpha(7)

    def test_missing_mask_raises(self):
        pools = MemoryPools(2)
        pools.save_round(0, {}, np.zeros((2, 1, 8)))
        with pytest.raises(KeyError):
            pools.mask(0, 5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            MemoryPools(-1)


class TestCompensation:
    def test_weight_formula(self):
        grads = {"w": np.array([2.0, -1.0])}
        fresh = {"w": np.array([1.0, 1.0])}
        stale = {"w": np.array([0.0, 0.0])}
        out = compensate_weight_gradients(grads, fresh, stale, lam=0.5)
        # g + λ g² (fresh − stale): [2 + 0.5·4·1, −1 + 0.5·1·1]
        np.testing.assert_allclose(out["w"], [4.0, -0.5])

    def test_lambda_zero_is_identity(self):
        grads = {"w": np.array([3.0])}
        out = compensate_weight_gradients(
            grads, {"w": np.array([9.0])}, {"w": np.array([1.0])}, lam=0.0
        )
        np.testing.assert_allclose(out["w"], grads["w"])

    def test_no_drift_is_identity(self):
        grads = {"w": np.array([3.0])}
        same = {"w": np.array([5.0])}
        out = compensate_weight_gradients(grads, same, same, lam=1.0)
        np.testing.assert_allclose(out["w"], grads["w"])

    def test_missing_weight_raises(self):
        with pytest.raises(KeyError):
            compensate_weight_gradients(
                {"w": np.ones(1)}, {}, {"w": np.ones(1)}, lam=0.5
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            compensate_weight_gradients({}, {}, {}, lam=-0.1)
        with pytest.raises(ValueError):
            compensate_alpha_gradient(np.ones(1), np.ones(1), np.ones(1), lam=-1)

    def test_alpha_formula(self):
        grad = np.array([1.0, -2.0])
        fresh = np.array([1.0, 0.0])
        stale = np.array([0.0, 1.0])
        out = compensate_alpha_gradient(grad, fresh, stale, lam=0.25)
        # g + λ g² drift: [1 + 0.25·1·1, −2 + 0.25·4·(−1)]
        np.testing.assert_allclose(out, [1.25, -3.0])

    def test_alpha_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compensate_alpha_gradient(np.ones(2), np.ones(3), np.ones(3), lam=0.5)

    def test_compensation_improves_gradient_estimate(self):
        """On a quadratic loss L(w) = w², the compensated stale gradient
        must be closer to the fresh gradient than the raw stale one
        (DC-ASGD's motivating property: here H = 2, g² approximates it
        for |g| ≈ sqrt(2), and any positive λ moves the right way)."""
        grad_fn = lambda w: 2 * w  # noqa: E731
        stale_w, fresh_w = np.array([1.0]), np.array([1.4])
        stale_g, fresh_g = grad_fn(stale_w), grad_fn(fresh_w)
        out = compensate_weight_gradients(
            {"w": stale_g}, {"w": fresh_w}, {"w": stale_w}, lam=0.5
        )["w"]
        assert abs(out - fresh_g) < abs(stale_g - fresh_g)


class TestDeviceProfiles:
    def test_tx2_is_4x_slower(self):
        t_gpu = GTX_1080TI.train_time(1000, 32)
        t_tx2 = JETSON_TX2.train_time(1000, 32)
        assert t_tx2 == pytest.approx(4 * t_gpu)

    def test_train_time_scales_with_model_and_batch(self):
        d = DeviceProfile("d", 1e-9)
        assert d.train_time(2000, 10) == pytest.approx(2 * d.train_time(1000, 10))
        assert d.train_time(1000, 20) == pytest.approx(2 * d.train_time(1000, 10))

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", 0.0)


class TestParticipant:
    @staticmethod
    def task_for(supernet, mask):
        return LocalStepTask(
            participant_id=0,
            round_index=0,
            mask=mask,
            state=supernet.submodel_state(mask),
            batch_seed=7,
        )

    def test_local_update_contents(self):
        supernet = Supernet(TINY, rng=np.random.default_rng(0))
        sub = supernet.extract_submodel(tiny_mask(1))
        participant = Participant(
            0, tiny_dataset(), batch_size=8, rng=np.random.default_rng(1)
        )
        update = participant.execute_task(self.task_for(supernet, tiny_mask(1)), TINY)
        assert update.participant_id == 0
        assert 0.0 <= update.reward <= 1.0
        assert update.num_samples == 8
        assert update.compute_time_s > 0
        assert set(update.gradients) <= {n for n, _ in sub.named_parameters()}
        assert all(np.isfinite(g).all() for g in update.gradients.values())

    def test_gradients_are_detached_copies(self):
        supernet = Supernet(TINY, rng=np.random.default_rng(0))
        task = self.task_for(supernet, tiny_mask(1))
        participant = Participant(0, tiny_dataset(), batch_size=4)
        update = participant.execute_task(task, TINY)
        pristine = {name: g.copy() for name, g in update.gradients.items()}
        for gradient in update.gradients.values():
            gradient[...] = 123.0
        # Neither the engine's buffers nor the task's state alias them.
        again = participant.execute_task(task, TINY)
        for name, gradient in pristine.items():
            np.testing.assert_array_equal(again.gradients[name], gradient)
            assert not np.allclose(task.state[name], 123.0)


class TestSynchronization:
    def test_hard_sync_all_fresh(self):
        delays = HardSync().delays([100.0, 100.0], [1.0, 3.0])
        np.testing.assert_array_equal(delays.taus, [0, 0])
        assert delays.round_duration_s == pytest.approx(3.0)

    def test_distribution_delay_respects_probs(self):
        model = DistributionDelay(
            [0.5, 0.5], staleness_threshold=3, rng=np.random.default_rng(0)
        )
        taus = np.concatenate(
            [model.delays(np.ones(100), np.ones(100)).taus for _ in range(5)]
        )
        assert set(np.unique(taus)) <= {0, 4}  # overflow bucket -> threshold+1
        assert abs((taus == 0).mean() - 0.5) < 0.1

    def test_distribution_paper_severe_mix(self):
        model = DistributionDelay(
            [0.3, 0.4, 0.2, 0.1], staleness_threshold=2, rng=np.random.default_rng(1)
        )
        taus = model.delays(np.ones(2000), np.ones(2000)).taus
        assert abs((taus == 0).mean() - 0.3) < 0.05
        assert abs((taus == 1).mean() - 0.4) < 0.05
        assert abs((taus == 2).mean() - 0.2) < 0.05
        assert abs((taus == 3).mean() - 0.1) < 0.05  # beyond threshold

    def test_distribution_invalid_probs(self):
        with pytest.raises(ValueError):
            DistributionDelay([], 2)
        with pytest.raises(ValueError):
            DistributionDelay([-0.5, 1.5], 2)
        with pytest.raises(ValueError):
            DistributionDelay([0.0, 0.0], 2)

    def test_latency_driven_marks_stragglers(self):
        fast = BandwidthTrace(np.full(60, 100.0))
        slow = BandwidthTrace(np.full(60, 0.9))
        model = LatencyDrivenDelay([fast, fast, slow], sync_fraction=0.5)
        delays = model.delays([1e6, 1e6, 1e6], [0.1, 0.1, 0.1])
        assert delays.taus[0] == 0 and delays.taus[1] == 0
        assert delays.taus[2] >= 1
        assert delays.round_duration_s > 0

    def test_latency_driven_full_fraction_is_hard_sync(self):
        trace = BandwidthTrace(np.full(60, 10.0))
        model = LatencyDrivenDelay([trace, trace], sync_fraction=1.0)
        delays = model.delays([1e5, 1e6], [0.5, 0.5])
        np.testing.assert_array_equal(delays.taus, [0, 0])

    def test_latency_driven_validation(self):
        trace = BandwidthTrace(np.ones(5))
        with pytest.raises(ValueError):
            LatencyDrivenDelay([trace], sync_fraction=0.0)
        with pytest.raises(ValueError):
            LatencyDrivenDelay([], sync_fraction=0.5)
        with pytest.raises(ValueError):
            LatencyDrivenDelay([trace]).delays([1.0, 2.0], [0.1, 0.1])


class TestEvaluation:
    def test_batch_accuracy(self):
        logits = nn.Tensor(np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]]))
        assert batch_accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_evaluate_accuracy_perfect_model(self):
        class Oracle(nn.Module):
            def forward(self, x):
                x = nn.as_tensor(x)
                # Predict the mean-pixel sign: class = int(mean > 0).
                means = x.data.mean(axis=(1, 2, 3))
                logits = np.stack([-means, means], axis=1)
                return nn.Tensor(logits)

        images = np.concatenate([np.ones((5, 1, 2, 2)), -np.ones((5, 1, 2, 2))])
        labels = np.array([1] * 5 + [0] * 5)
        ds = ArrayDataset(images, labels, 2)
        assert evaluate_accuracy(Oracle(), ds, batch_size=4) == 1.0

    def test_evaluate_restores_training_mode(self):
        model = nn.Sequential(nn.Linear(4, 2))
        model.train()

        class Flat(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(nn.as_tensor(x).reshape(len(x), -1))

        wrapped = Flat(model)
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(4, dtype=int), 2)
        evaluate_accuracy(wrapped, ds)
        assert wrapped.training

    def test_curve_recorder_moving_average(self):
        rec = CurveRecorder()
        for v in [0.0, 1.0, 2.0, 3.0]:
            rec.record("x", v)
        np.testing.assert_allclose(rec.moving_average("x", window=2), [0, 0.5, 1.5, 2.5])

    def test_curve_recorder_window_larger_than_series(self):
        rec = CurveRecorder()
        rec.record("x", 2.0)
        np.testing.assert_allclose(rec.moving_average("x", window=50), [2.0])

    def test_curve_recorder_invalid_window(self):
        rec = CurveRecorder()
        rec.record("x", 1.0)
        with pytest.raises(ValueError):
            rec.moving_average("x", window=0)

    def test_curve_recorder_last(self):
        rec = CurveRecorder()
        assert rec.last("missing") is None
        assert rec.last("missing", 0.5) == 0.5
        rec.record("x", 3.0)
        assert rec.last("x") == 3.0


class SmallCNN(nn.Module):
    """4-class CNN used by FedAvg tests."""

    def __init__(self, rng):
        super().__init__()
        self.body = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool(),
            nn.Linear(8, 4, rng=rng),
        )

    def forward(self, x):
        return self.body(nn.as_tensor(x))


class TestFedAvg:
    def test_round_updates_model(self):
        rng = np.random.default_rng(0)
        model = SmallCNN(rng)
        before = model.state_dict()
        shards = iid_partition(tiny_dataset(40), 4, rng=rng)
        trainer = FedAvgTrainer(model, shards, FedAvgConfig(batch_size=4), rng=rng)
        metrics = trainer.run_round()
        assert "train_accuracy" in metrics
        after = model.state_dict()
        assert any(
            not np.allclose(before[k], after[k]) for k in before
        ), "round must change the global model"

    def test_participation_fraction(self):
        rng = np.random.default_rng(1)
        shards = iid_partition(tiny_dataset(40), 4, rng=rng)
        trainer = FedAvgTrainer(
            SmallCNN(rng),
            shards,
            FedAvgConfig(batch_size=4, participation_fraction=0.5),
            rng=rng,
        )
        trainer.run_round()  # selects 2 of 4; just exercises the path

    def test_weighted_average(self):
        flats = [np.array([0.0]), np.array([3.0])]
        out = FedAvgTrainer._weighted_average(flats, [1.0, 2.0])
        np.testing.assert_allclose(out, [2.0])

    def test_weighted_average_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            FedAvgTrainer._weighted_average([np.zeros(1)], [0.0])

    def test_val_accuracy_recorded_with_test_set(self):
        rng = np.random.default_rng(2)
        train, test = synth_cifar10(train_per_class=6, test_per_class=2)
        # Use 4-class model on a 10-class set? No — use a small supernet-free CNN with 10 outputs.
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool(),
            nn.Linear(8, 10, rng=rng),
        )

        class Wrap(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(nn.as_tensor(x))

        shards = iid_partition(train, 3, rng=rng)
        trainer = FedAvgTrainer(
            Wrap(model), shards, FedAvgConfig(batch_size=8), test_dataset=test, rng=rng
        )
        metrics = trainer.run_round()
        assert "val_accuracy" in metrics
        assert len(trainer.recorder.get("val_accuracy")) == 1

    def test_fedavg_learns(self):
        """FedAvg must improve training accuracy on an easy dataset."""
        rng = np.random.default_rng(3)
        train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(8 * 8 * 8, 10, rng=rng),
        )

        class Wrap(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(nn.as_tensor(x))

        shards = iid_partition(train, 4, rng=rng)
        trainer = FedAvgTrainer(
            Wrap(model),
            shards,
            FedAvgConfig(batch_size=16, local_steps=3, lr=0.05),
            rng=rng,
        )
        recorder = trainer.run(15)
        acc = recorder.get("train_accuracy")
        assert np.mean(acc[-3:]) > np.mean(acc[:3]) + 0.1

    def test_empty_shards_rejected(self):
        with pytest.raises(ValueError):
            FedAvgTrainer(SmallCNN(np.random.default_rng(0)), [], FedAvgConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FedAvgConfig(participation_fraction=0.0)
        with pytest.raises(ValueError):
            FedAvgConfig(local_steps=0)


@settings(max_examples=15, deadline=None)
@given(
    lam=st.floats(0.0, 2.0),
    seed=st.integers(0, 500),
)
def test_property_compensation_direction(lam, seed):
    """Compensated gradient differs from the stale one exactly along
    g² ⊙ drift, scaled by λ."""
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=7)
    stale = rng.normal(size=7)
    fresh = stale + rng.normal(size=7)
    out = compensate_alpha_gradient(grad, fresh, stale, lam)
    np.testing.assert_allclose(out - grad, lam * grad * grad * (fresh - stale), atol=1e-12)
