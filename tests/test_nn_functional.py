"""Unit tests for conv/pool/loss ops (repro.nn.functional)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Tensor

from .gradcheck import assert_gradients_close

RNG = np.random.default_rng(1)


def leaf(shape, scale=1.0):
    return Tensor(RNG.normal(0, scale, size=shape), requires_grad=True)


class TestWindowExtraction:
    """The sliding_window_view fast path must equal the KH*KW loop
    reference for every stride/dilation/kernel combination."""

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (2, 4), (5, 1)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("dilation", [(1, 1), (2, 2), (3, 1)])
    def test_fast_path_equals_loop(self, kernel, stride, dilation):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 14, 15))
        kh, kw = kernel
        eh = dilation[0] * (kh - 1) + 1
        ew = dilation[1] * (kw - 1) + 1
        oh = (x.shape[2] - eh) // stride[0] + 1
        ow = (x.shape[3] - ew) // stride[1] + 1
        fast = F._extract_windows(x, kernel, stride, dilation, (oh, ow))
        loop = F._extract_windows_view(x, kernel, stride, dilation, (oh, ow))
        assert fast.shape == loop.shape == (2, 3, kh, kw, oh, ow)
        assert fast.dtype == loop.dtype
        np.testing.assert_array_equal(fast, loop)
        assert fast.flags["C_CONTIGUOUS"]

    def test_float32_dtype_preserved(self):
        x = np.arange(48, dtype=np.float32).reshape(1, 1, 6, 8)
        fast = F._extract_windows(x, (2, 2), (2, 2), (1, 1), (3, 4))
        loop = F._extract_windows_view(x, (2, 2), (2, 2), (1, 1), (3, 4))
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, loop)


class TestConv2d:
    def test_output_shape_basic(self):
        x = leaf((2, 3, 8, 8))
        w = leaf((5, 3, 3, 3), scale=0.2)
        out = F.conv2d(x, w, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_output_shape_stride2(self):
        x = leaf((1, 3, 8, 8))
        w = leaf((4, 3, 3, 3), scale=0.2)
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)

    def test_output_shape_dilation(self):
        x = leaf((1, 2, 9, 9))
        w = leaf((3, 2, 3, 3), scale=0.2)
        out = F.conv2d(x, w, dilation=2, padding=2)
        assert out.shape == (1, 3, 9, 9)

    def test_matches_direct_computation(self):
        # Hand-check a 1x1 batch against explicit loops.
        x = Tensor(RNG.normal(size=(1, 2, 4, 4)))
        w = Tensor(RNG.normal(size=(3, 2, 3, 3)))
        out = F.conv2d(x, w, padding=1).data
        xp = np.pad(x.data, [(0, 0), (0, 0), (1, 1), (1, 1)])
        expected = np.zeros((1, 3, 4, 4))
        for o in range(3):
            for i in range(4):
                for j in range(4):
                    expected[0, o, i, j] = (
                        xp[0, :, i : i + 3, j : j + 3] * w.data[o]
                    ).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradcheck_basic(self):
        x = leaf((2, 2, 5, 5), scale=0.5)
        w = leaf((3, 2, 3, 3), scale=0.3)
        b = leaf((3,), scale=0.1)
        assert_gradients_close(
            lambda: (F.conv2d(x, w, b, padding=1) ** 2).sum(), [x, w, b], rtol=1e-3
        )

    def test_gradcheck_stride_and_dilation(self):
        x = leaf((1, 2, 7, 7), scale=0.5)
        w = leaf((2, 2, 3, 3), scale=0.3)
        assert_gradients_close(
            lambda: (F.conv2d(x, w, stride=2, padding=2, dilation=2) ** 2).sum(),
            [x, w],
            rtol=1e-3,
        )

    @pytest.mark.parametrize("kernel,size", [(1, 2), (3, 4)])
    def test_gradcheck_single_output_under_stride(self, kernel, size):
        # One output position: the stride leaves x's last row and column
        # uncovered, and their gradient must read zero, not be missing.
        x = leaf((2, 2, size, size), scale=0.5)
        w = leaf((3, 2, kernel, kernel), scale=0.3)
        out = F.conv2d(x, w, stride=2)
        assert out.shape == (2, 3, 1, 1)
        assert_gradients_close(lambda: (F.conv2d(x, w, stride=2) ** 2).sum(), [x, w], rtol=1e-3)

    def test_gradcheck_groups_depthwise(self):
        x = leaf((1, 4, 5, 5), scale=0.5)
        w = leaf((4, 1, 3, 3), scale=0.3)  # depthwise: groups == channels
        assert_gradients_close(
            lambda: (F.conv2d(x, w, padding=1, groups=4) ** 2).sum(), [x, w], rtol=1e-3
        )

    def test_groups_partition_channels(self):
        # With groups=2, first half of outputs must not see second half of inputs.
        x = np.zeros((1, 4, 3, 3))
        x[0, 3] = 1.0  # activate only the last input channel (group 2)
        w = np.ones((2, 2, 1, 1))  # 2 out channels, one per group
        out = F.conv2d(Tensor(x), Tensor(w), groups=2).data
        assert np.all(out[0, 0] == 0.0)  # group-1 output blind to group-2 input
        assert np.all(out[0, 1] == 1.0)

    def test_channel_mismatch_raises(self):
        x = leaf((1, 3, 4, 4))
        w = leaf((2, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_too_small_input_raises(self):
        x = leaf((1, 1, 2, 2))
        w = leaf((1, 1, 5, 5))
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradcheck(self):
        # Use distinct values so the max is unique (finite differences at a
        # tie are ill-defined).
        x = Tensor(
            RNG.permutation(36).astype(float).reshape(1, 1, 6, 6), requires_grad=True
        )
        assert_gradients_close(
            lambda: (F.max_pool2d(x, 3, stride=1, padding=1) ** 2).sum(), [x], rtol=1e-3
        )

    def test_max_pool_padding_never_wins(self):
        x = Tensor(-np.ones((1, 1, 2, 2)))
        out = F.max_pool2d(x, 3, stride=1, padding=1)
        assert (out.data == -1).all()

    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (2, 0), (1, 3)])
    @pytest.mark.parametrize("fill", [0.0, -np.inf])
    def test_padded_input_is_np_pad(self, padding, fill):
        x = RNG.normal(size=(2, 3, 4, 5)).astype(np.float32)
        ph, pw = padding
        want = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)], constant_values=fill)
        got = F._padded(x, padding, fill)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)  # pools rewrite it on replay

    @pytest.mark.parametrize("block", [1, 2**30])
    def test_max_pool_block_size_never_changes_a_bit(self, block, monkeypatch):
        def run():
            x = Tensor(np.random.default_rng(2).normal(size=(5, 3, 8, 8)), requires_grad=True)
            out = F.max_pool2d(x, 3, stride=2, padding=1)
            out.backward(np.random.default_rng(3).normal(size=out.shape))
            return out.data, x.grad

        want = run()
        monkeypatch.setattr(F, "_BLOCK_BYTES", block)
        for a, b in zip(want, run()):
            assert a.tobytes() == b.tobytes()

    def test_avg_pool_values_excluding_pad(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = F.avg_pool2d(x, 3, stride=1, padding=1, count_include_pad=False)
        # Every window is full of ones over its valid region -> all ones.
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))

    def test_avg_pool_values_including_pad(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = F.avg_pool2d(x, 3, stride=1, padding=1, count_include_pad=True)
        # Corner windows see 4 ones of 9 cells.
        assert out.data[0, 0, 0, 0] == pytest.approx(4 / 9)

    def test_avg_pool_gradcheck(self):
        x = leaf((1, 2, 5, 5))
        assert_gradients_close(
            lambda: (F.avg_pool2d(x, 3, stride=1, padding=1) ** 2).sum(), [x], rtol=1e-3
        )

    def test_avg_pool_stride2_shape(self):
        x = leaf((2, 3, 8, 8))
        assert F.avg_pool2d(x, 3, stride=2, padding=1).shape == (2, 3, 4, 4)

    def test_adaptive_avg_pool(self):
        x = leaf((2, 3, 5, 5))
        out = F.adaptive_avg_pool2d(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.data[..., 0, 0], x.data.mean(axis=(2, 3)))

    def test_adaptive_avg_pool_rejects_non_global(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(leaf((1, 1, 4, 4)), output_size=2)


class TestLosses:
    def test_cross_entropy_matches_composed(self):
        logits = leaf((6, 5), scale=2.0)
        labels = RNG.integers(0, 5, size=6)
        fused = F.cross_entropy(logits, labels)
        composed = F.nll_loss(F.log_softmax(logits, axis=1), labels)
        assert fused.item() == pytest.approx(composed.item(), rel=1e-10)

    def test_cross_entropy_gradcheck(self):
        logits = leaf((4, 3), scale=2.0)
        labels = np.array([0, 2, 1, 2])
        assert_gradients_close(
            lambda: F.cross_entropy(logits, labels), [logits], rtol=1e-4
        )

    def test_nll_gradcheck(self):
        logits = leaf((3, 4), scale=1.0)
        labels = np.array([1, 3, 0])
        assert_gradients_close(
            lambda: F.nll_loss(F.log_softmax(logits, axis=1), labels), [logits], rtol=1e-4
        )

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_is_log_k(self):
        k = 7
        logits = Tensor(np.zeros((3, k)), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 3, 6]))
        assert loss.item() == pytest.approx(np.log(k))

    def test_log_softmax_stability_large_logits(self):
        x = Tensor(np.array([[1e4, 0.0]]))
        out = F.log_softmax(x, axis=1)
        assert np.isfinite(out.data).all()


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = leaf((10, 10))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_rate_is_identity(self):
        x = leaf((4,))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(leaf((2,)), 1.0, training=True)


@settings(max_examples=10, deadline=None)
@given(
    channels=st.integers(1, 3),
    size=st.integers(4, 7),
    seed=st.integers(0, 999),
)
def test_property_conv_gradcheck_random_shapes(channels, size, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=0.5, size=(1, channels, size, size)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.3, size=(2, channels, 3, 3)), requires_grad=True)
    assert_gradients_close(
        lambda: (F.conv2d(x, w, padding=1) ** 2).sum(), [x, w], rtol=2e-3, atol=1e-6
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 999), n=st.integers(1, 6), k=st.integers(2, 6))
def test_property_cross_entropy_positive_and_bounded(seed, n, k):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(scale=3.0, size=(n, k)), requires_grad=True)
    labels = rng.integers(0, k, size=n)
    loss = F.cross_entropy(logits, labels)
    assert loss.item() >= 0.0
    # Bounded by max-logit gap + log k.
    gap = (logits.data.max(axis=1) - logits.data.min(axis=1)).max()
    assert loss.item() <= gap + np.log(k) + 1e-9
