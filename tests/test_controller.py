"""Tests for the RL controller (policy + REINFORCE)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import (
    AlphaOptimizer,
    ArchitecturePolicy,
    MovingAverageBaseline,
    ReinforceEstimator,
    softmax_rows,
)
from repro.search_space import NUM_OPERATIONS, ArchitectureMask

E = 5  # edges in these tests


def make_policy(seed=0, init_std=1e-3):
    return ArchitecturePolicy(E, rng=np.random.default_rng(seed), init_std=init_std)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(2, 3, 4))
        probs = softmax_rows(logits)
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 3)))

    def test_stable_for_large_logits(self):
        probs = softmax_rows(np.array([[1e5, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestArchitecturePolicy:
    def test_initial_distribution_near_uniform(self):
        policy = make_policy()
        probs = policy.probabilities()
        np.testing.assert_allclose(probs, 1.0 / NUM_OPERATIONS, atol=1e-3)

    def test_sample_shapes(self):
        mask = make_policy().sample_mask()
        assert len(mask.normal) == E and len(mask.reduce) == E

    def test_sampling_follows_distribution(self):
        policy = make_policy(seed=1)
        policy.alpha[0, 0] = -10.0
        policy.alpha[0, 0, 2] = 10.0  # edge 0 of normal: op 2 nearly surely
        draws = [policy.sample_mask().normal[0] for _ in range(50)]
        assert all(d == 2 for d in draws)

    def test_log_prob_uniform(self):
        policy = make_policy()
        mask = policy.sample_mask()
        expected = 2 * E * np.log(1.0 / NUM_OPERATIONS)
        assert policy.log_prob(mask) == pytest.approx(expected, abs=0.05)

    def test_grad_log_prob_is_onehot_minus_p(self):
        policy = make_policy(seed=2)
        mask = policy.sample_mask()
        grad = policy.grad_log_prob(mask)
        probs = policy.probabilities()
        for e in range(E):
            chosen = mask.normal[e]
            np.testing.assert_allclose(grad[0, e, chosen], 1 - probs[0, e, chosen])
            others = [i for i in range(NUM_OPERATIONS) if i != chosen]
            np.testing.assert_allclose(grad[0, e, others], -probs[0, e, others])

    def test_grad_log_prob_matches_finite_difference(self):
        """Eq. (12) must equal the numeric gradient of Eq. (4)'s log-prob."""
        policy = make_policy(seed=3, init_std=0.5)
        mask = policy.sample_mask()
        analytic = policy.grad_log_prob(mask)
        eps = 1e-6
        numeric = np.zeros_like(policy.alpha)
        flat_alpha = policy.alpha.reshape(-1)
        flat_num = numeric.reshape(-1)
        for i in range(flat_alpha.size):
            orig = flat_alpha[i]
            flat_alpha[i] = orig + eps
            plus = policy.log_prob(mask)
            flat_alpha[i] = orig - eps
            minus = policy.log_prob(mask)
            flat_alpha[i] = orig
            flat_num[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_entropy_decreases_as_policy_sharpens(self):
        policy = make_policy()
        before = policy.entropy()
        policy.alpha[:, :, 0] = 10.0
        assert policy.entropy() < before

    def test_mode_mask(self):
        policy = make_policy()
        policy.alpha[0, :, 6] = 5.0
        policy.alpha[1, :, 1] = 5.0
        mode = policy.mode_mask()
        assert all(i == 6 for i in mode.normal)
        assert all(i == 1 for i in mode.reduce)

    def test_snapshot_is_independent_copy(self):
        policy = make_policy()
        snap = policy.snapshot()
        policy.alpha += 1.0
        assert not np.allclose(snap, policy.alpha)
        policy.load(snap)
        np.testing.assert_array_equal(policy.alpha, snap)

    def test_load_shape_checked(self):
        with pytest.raises(ValueError):
            make_policy().load(np.zeros((2, 2, 2)))

    def test_mask_size_checked(self):
        policy = make_policy()
        bad = ArchitectureMask((0,), (0,))
        with pytest.raises(ValueError):
            policy.log_prob(bad)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            ArchitecturePolicy(0)
        with pytest.raises(ValueError):
            ArchitecturePolicy(3, num_ops=1)


class TestBaseline:
    def test_update_formula(self):
        baseline = MovingAverageBaseline(decay=0.5, initial=0.4)
        value = baseline.update([0.8, 1.0])  # round mean 0.9
        assert value == pytest.approx(0.5 * 0.9 + 0.5 * 0.4)

    def test_advantage(self):
        baseline = MovingAverageBaseline(initial=0.6)
        assert baseline.advantage(0.9) == pytest.approx(0.3)

    def test_empty_round_is_noop(self):
        baseline = MovingAverageBaseline(initial=0.3)
        assert baseline.update([]) == pytest.approx(0.3)

    def test_converges_to_stationary_accuracy(self):
        baseline = MovingAverageBaseline(decay=0.5)
        for _ in range(50):
            baseline.update([0.75])
        assert baseline.value == pytest.approx(0.75, abs=1e-4)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            MovingAverageBaseline(decay=0.0)


class TestReinforceEstimator:
    def test_gradient_is_mean_of_terms(self):
        policy = make_policy(seed=4)
        estimator = ReinforceEstimator(policy)
        m1, m2 = policy.sample_mask(), policy.sample_mask()
        estimator.add(m1, 1.0)
        estimator.add(m2, -1.0)
        expected = (policy.grad_log_prob(m1) - policy.grad_log_prob(m2)) / 2
        np.testing.assert_allclose(estimator.gradient(), expected)

    def test_empty_round_raises(self):
        estimator = ReinforceEstimator(make_policy())
        with pytest.raises(RuntimeError):
            estimator.gradient()

    def test_reset(self):
        policy = make_policy()
        estimator = ReinforceEstimator(policy)
        estimator.add(policy.sample_mask(), 1.0)
        estimator.reset()
        assert estimator.count == 0

    def test_add_gradient_term_shape_checked(self):
        estimator = ReinforceEstimator(make_policy())
        with pytest.raises(ValueError):
            estimator.add_gradient_term(np.zeros((1, 2)))

    def test_positive_reward_increases_sampled_probability(self):
        """The REINFORCE direction must increase p(sampled op)."""
        policy = make_policy(seed=5)
        mask = policy.sample_mask()
        before = np.exp(policy.log_prob(mask))
        estimator = ReinforceEstimator(policy)
        estimator.add(mask, reward=1.0)
        AlphaOptimizer(policy, lr=0.1, weight_decay=0.0).step(estimator.gradient())
        after = np.exp(policy.log_prob(mask))
        assert after > before

    def test_negative_reward_decreases_sampled_probability(self):
        policy = make_policy(seed=6)
        mask = policy.sample_mask()
        before = np.exp(policy.log_prob(mask))
        estimator = ReinforceEstimator(policy)
        estimator.add(mask, reward=-1.0)
        AlphaOptimizer(policy, lr=0.1, weight_decay=0.0).step(estimator.gradient())
        after = np.exp(policy.log_prob(mask))
        assert after < before


class TestAlphaOptimizer:
    def test_clipping(self):
        policy = make_policy()
        before = policy.snapshot()
        opt = AlphaOptimizer(policy, lr=1.0, weight_decay=0.0, grad_clip=1.0)
        grad = np.full_like(policy.alpha, 10.0)
        norm = opt.step(grad)
        assert norm > 1.0
        # The applied step has the clipped magnitude: ||delta|| = lr * clip.
        delta = np.linalg.norm(policy.alpha - before)
        assert delta == pytest.approx(1.0, rel=1e-9)

    def test_weight_decay_shrinks_alpha(self):
        policy = make_policy()
        policy.alpha[...] = 1.0
        opt = AlphaOptimizer(policy, lr=0.1, weight_decay=0.5, grad_clip=None)
        opt.step(np.zeros_like(policy.alpha))
        assert np.all(policy.alpha < 1.0)

    def test_shape_checked(self):
        opt = AlphaOptimizer(make_policy())
        with pytest.raises(ValueError):
            opt.step(np.zeros((3, 3)))

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            AlphaOptimizer(make_policy(), lr=0.0)


class TestControllerLearnsBandit:
    def test_controller_converges_on_synthetic_rewards(self):
        """End-to-end sanity: with reward = fraction of edges using op 4,
        the policy must concentrate on op 4 within a few hundred steps."""
        policy = make_policy(seed=7)
        baseline = MovingAverageBaseline(decay=0.9)
        optimizer = AlphaOptimizer(policy, lr=0.2, weight_decay=0.0)
        for _ in range(300):
            estimator = ReinforceEstimator(policy)
            accuracies = []
            for _ in range(4):
                mask = policy.sample_mask()
                acc = (
                    np.mean([op == 4 for op in mask.normal])
                    + np.mean([op == 4 for op in mask.reduce])
                ) / 2
                accuracies.append(acc)
                estimator.add(mask, baseline.advantage(acc))
            baseline.update(accuracies)
            optimizer.step(estimator.gradient())
        mode = policy.mode_mask()
        assert np.mean([op == 4 for op in mode.normal]) >= 0.8
        assert np.mean([op == 4 for op in mode.reduce]) >= 0.8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_grad_log_prob_rows_sum_to_zero(seed):
    """Softmax log-prob gradients sum to zero across ops on every edge —
    adding a constant to an edge's logits never changes the distribution."""
    policy = ArchitecturePolicy(4, rng=np.random.default_rng(seed), init_std=1.0)
    mask = policy.sample_mask()
    grad = policy.grad_log_prob(mask)
    np.testing.assert_allclose(grad.sum(axis=-1), np.zeros((2, 4)), atol=1e-12)


def _reference_sample(policy):
    """Eq. 5 as ``Generator.choice`` draws it: one call per edge, normal
    cell first, on the policy's own stream."""
    probs = policy.probabilities()
    rows = [
        [int(policy.rng.choice(policy.num_ops, p=probs[cell, e])) for e in range(policy.num_edges)]
        for cell in range(2)
    ]
    return ArchitectureMask(tuple(rows[0]), tuple(rows[1]))


def _row(kind, op, value):
    """One edge's logits: uniform, converged at ±25 on ``op``, a near-tie
    around ``value``, or a -inf logit on ``op``."""
    row = np.zeros(NUM_OPERATIONS)
    if kind == "converged":
        row[op] = 25.0 if value >= 0 else -25.0
    elif kind == "near_tie":
        row[:] = value
        row[op] = np.nextafter(value, np.inf)
        row[(op + 1) % NUM_OPERATIONS] = value + 1e-12
    elif kind == "neg_inf":
        row[:] = np.linspace(-1.0, 1.0, NUM_OPERATIONS) * value
        row[op] = -np.inf
    return row


rows = st.tuples(
    st.sampled_from(["uniform", "converged", "near_tie", "neg_inf"]),
    st.integers(0, NUM_OPERATIONS - 1),
    st.floats(-3.0, 3.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    edge_rows=st.lists(rows, min_size=2 * E, max_size=2 * E),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_mask_draws_what_choice_draws_per_edge(edge_rows, seed):
    """Same masks as a per-edge ``rng.choice(N, p=…)`` over several
    draws, and the stream left where that reference leaves it."""
    alpha = np.array([_row(*spec) for spec in edge_rows]).reshape(2, E, NUM_OPERATIONS)
    policy, reference = make_policy(seed=seed), make_policy(seed=seed)
    policy.load(alpha)
    reference.load(alpha)
    for _ in range(3):
        assert policy.sample_mask() == _reference_sample(reference)
    assert policy.rng.random() == reference.rng.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_mask_refuses_a_row_without_a_distribution(bad):
    """A NaN logit, or +inf (inf - inf is NaN), leaves the row's
    probabilities NaN: sampling raises rather than picking an op."""
    policy = make_policy()
    policy.alpha[1, 2, 3] = bad
    with pytest.raises(ValueError):
        policy.sample_mask()
