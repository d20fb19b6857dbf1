"""Unit tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate, no_grad, stack
from repro.nn.tensor import _unbroadcast

from .gradcheck import assert_gradients_close

RNG = np.random.default_rng(0)


def leaf(shape, scale=1.0):
    return Tensor(RNG.normal(0, scale, size=shape), requires_grad=True)


class TestBasics:
    def test_scalar_backward_defaults_to_one(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x
        y.backward()
        assert y.data == pytest.approx(9.0)
        assert x.grad == pytest.approx(6.0)

    def test_backward_requires_grad(self):
        x = Tensor(np.array(3.0))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_nonscalar_backward_needs_grad_argument(self):
        x = leaf((3,))
        y = x * 2
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones(3))
        np.testing.assert_allclose(x.grad, 2 * np.ones(3))

    def test_grad_shape_mismatch_rejected(self):
        x = leaf((3,))
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones(4))

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_detach_cuts_graph(self):
        x = leaf((2, 2))
        y = x.detach() * 3
        assert not y.requires_grad

    def test_gradients_accumulate_across_uses(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x + x * 3  # dy/dx = 2x + 3 = 7
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_no_grad_blocks_graph_construction(self):
        x = leaf((2,))
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y.is_leaf

    def test_backward_releases_the_graph_as_it_walks(self):
        import weakref

        x = leaf((4, 4))
        hidden = (x * 2).relu()
        activation = weakref.ref(hidden.data)
        y = (hidden * hidden).sum()
        del hidden
        y.backward()
        assert activation() is None  # died with its node, mid-walk
        np.testing.assert_allclose(x.grad, 8 * np.maximum(x.data, 0))
        with pytest.raises(RuntimeError, match="released"):
            y.backward()

    def test_shared_trunk_cannot_be_walked_after_release(self):
        x = leaf((3,))
        trunk = x * 2
        first, second = trunk.sum(), (trunk * trunk).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="released"):
            second.backward()

    def test_diamond_graph_backward_once_per_node(self):
        # x -> a, b -> c uses both; gradient must flow exactly once per path.
        x = Tensor(np.array(2.0), requires_grad=True)
        a = x * 3
        b = x * 5
        c = a * b  # c = 15 x^2, dc/dx = 30 x = 60
        c.backward()
        assert x.grad == pytest.approx(60.0)


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_sum_leading_axes(self):
        g = np.ones((5, 3, 4))
        out = _unbroadcast(g, (3, 4))
        np.testing.assert_allclose(out, 5 * np.ones((3, 4)))

    def test_sum_stretched_axes(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, 4 * np.ones((3, 1)))

    def test_mixed(self):
        g = np.ones((2, 3, 4))
        out = _unbroadcast(g, (1, 4))
        np.testing.assert_allclose(out, 6 * np.ones((1, 4)))


class TestArithmeticGradients:
    def test_add_broadcast(self):
        a, b = leaf((3, 4)), leaf((4,))
        assert_gradients_close(lambda: (a + b).sum(), [a, b])

    def test_sub(self):
        a, b = leaf((2, 3)), leaf((2, 3))
        assert_gradients_close(lambda: (a - b).sum(), [a, b])

    def test_rsub_scalar(self):
        a = leaf((3,))
        assert_gradients_close(lambda: (5.0 - a).sum(), [a])

    def test_mul_broadcast(self):
        a, b = leaf((2, 3)), leaf((1, 3))
        assert_gradients_close(lambda: (a * b).sum(), [a, b])

    def test_div(self):
        a, b = leaf((3,)), Tensor(RNG.uniform(1, 2, size=(3,)), requires_grad=True)
        assert_gradients_close(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        a = Tensor(RNG.uniform(0.5, 2, size=(4,)), requires_grad=True)
        assert_gradients_close(lambda: (a ** 3).sum(), [a])

    def test_neg(self):
        a = leaf((2, 2))
        assert_gradients_close(lambda: (-a).sum(), [a])


class TestFunctionGradients:
    def test_exp(self):
        a = leaf((3,), scale=0.5)
        assert_gradients_close(lambda: a.exp().sum(), [a])

    def test_log(self):
        a = Tensor(RNG.uniform(0.5, 2, size=(3,)), requires_grad=True)
        assert_gradients_close(lambda: a.log().sum(), [a])

    def test_sqrt(self):
        a = Tensor(RNG.uniform(0.5, 2, size=(3,)), requires_grad=True)
        assert_gradients_close(lambda: a.sqrt().sum(), [a])

    def test_tanh(self):
        a = leaf((4,))
        assert_gradients_close(lambda: a.tanh().sum(), [a])

    def test_sigmoid(self):
        a = leaf((4,))
        assert_gradients_close(lambda: a.sigmoid().sum(), [a])

    def test_relu(self):
        a = Tensor(np.array([-1.0, 0.5, 2.0, -0.1]), requires_grad=True)
        y = a.relu()
        y.backward(np.ones(4))
        np.testing.assert_allclose(y.data, [0, 0.5, 2.0, 0])
        np.testing.assert_allclose(a.grad, [0, 1, 1, 0])

    def test_abs(self):
        a = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        assert_gradients_close(lambda: a.abs().sum(), [a])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = leaf((2, 3, 4))
        assert_gradients_close(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_sum_axis_no_keepdims(self):
        a = leaf((2, 3))
        assert_gradients_close(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_mean(self):
        a = leaf((3, 4))
        assert_gradients_close(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_mean_global_value(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert a.mean().item() == pytest.approx(2.5)

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor(np.array([[1.0, 3.0], [2.0, 0.0]]), requires_grad=True)
        y = a.max(axis=1)
        y.backward(np.ones(2))
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        y = a.max()
        y.backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0])

    def test_var(self):
        a = leaf((2, 5))
        assert_gradients_close(lambda: a.var(axis=1).sum(), [a])


class TestShapes:
    def test_reshape(self):
        a = leaf((2, 6))
        assert_gradients_close(lambda: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose(self):
        a = leaf((2, 3, 4))
        assert_gradients_close(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_T(self):
        a = leaf((2, 3))
        assert (a.T).shape == (3, 2)

    def test_getitem_slice(self):
        a = leaf((4, 4))
        assert_gradients_close(lambda: (a[1:3, :2] ** 2).sum(), [a])

    def test_getitem_fancy(self):
        a = leaf((5, 3))
        idx = np.array([0, 2, 2])
        assert_gradients_close(lambda: (a[idx] ** 2).sum(), [a])

    def test_getitem_fancy_repeated_rows_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        y = a[np.array([1, 1])].sum()
        y.backward()
        np.testing.assert_allclose(a.grad, [[0, 0], [2, 2], [0, 0]])

    @pytest.mark.parametrize(
        "key",
        [
            (slice(None), slice(None), slice(1, None), slice(1, None)),
            (Ellipsis, slice(None, None, 2)),
            (1, None, slice(0, 2)),
            slice(1, 3),
            np.array([0, 2, 2]),
            (np.array([1, 1, 0]), slice(None), np.array([0, 0, 3])),
        ],
        ids=["factorized_reduce", "ellipsis_step", "int_newaxis", "bare_slice",
             "repeated_rows", "repeated_pairs"],
    )
    def test_getitem_backward_is_add_at_bit_for_bit(self, key):
        """Basic keys take one strided add, array keys (indices may
        repeat) keep ``np.add.at``; both are ``add.at``'s bytes, signed
        zeros included."""
        a = leaf((3, 2, 4, 4))
        out = a[key]
        grad = RNG.normal(size=out.shape)
        grad.flat[0] = -0.0
        grad.flat[-1] = 0.0
        out.backward(grad)
        want = np.zeros_like(a.data)
        np.add.at(want, key, grad)
        assert a.grad.tobytes() == want.tobytes()

    def test_pad2d_asymmetric_is_np_pad(self):
        a = leaf((2, 3, 4, 5))
        out = a.pad2d_asymmetric(0, 1, 2, 0)
        want = np.pad(a.data, [(0, 0), (0, 0), (0, 1), (2, 0)])
        assert out.data.tobytes() == want.tobytes() and out.shape == want.shape
        assert_gradients_close(lambda: (a.pad2d_asymmetric(0, 1, 2, 0) ** 2).sum(), [a])

    def test_pad2d(self):
        a = leaf((1, 2, 3, 3))
        assert_gradients_close(lambda: (a.pad2d_asymmetric(1, 1, 2, 2) ** 2).sum(), [a])

    def test_pad2d_zero_is_noop(self):
        a = leaf((1, 1, 2, 2))
        assert a.pad2d_asymmetric(0, 0, 0, 0) is a


class TestMatmul:
    def test_2d(self):
        a, b = leaf((3, 4)), leaf((4, 2))
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_batched(self):
        a, b = leaf((2, 3, 4)), leaf((2, 4, 5))
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_broadcast_batch(self):
        a, b = leaf((2, 3, 4)), leaf((4, 5))
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_matvec(self):
        a, b = leaf((3, 4)), leaf((4,))
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])


class TestConcatStack:
    def test_concatenate(self):
        a, b = leaf((2, 3)), leaf((4, 3))
        assert_gradients_close(lambda: (concatenate([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concatenate_axis1(self):
        a, b = leaf((2, 3)), leaf((2, 2))
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        assert_gradients_close(lambda: (concatenate([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self):
        a, b = leaf((2, 3)), leaf((2, 3))
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        assert_gradients_close(lambda: (stack([a, b]) ** 2).sum(), [a, b])


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_property_linear_chain_gradcheck(rows, cols, seed):
    """Random elementwise chains differentiate correctly (property-based)."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 1.5, size=(cols,)), requires_grad=True)

    def fn():
        return ((a * b + 1.0).tanh() * (a + 2.0)).mean()

    assert_gradients_close(fn, [a, b], rtol=1e-3, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_softmax_rows_sum_to_one(seed):
    from repro.nn.functional import softmax

    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(scale=5.0, size=(4, 7)))
    s = softmax(x, axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), np.ones(4), atol=1e-12)
    assert (s.data >= 0).all()


class TestReluFastLoops:
    """``relu`` runs on numpy's fast loops: ``fmax(x, 0) + 0.0`` forward
    and a float mask times the gradient backward.  Both must be the old
    ``np.where(x > 0, x, 0.0)`` and ``grad * (x > 0)`` byte for byte.
    Arrays of several lengths: numpy's scalar and SIMD loops disagree on
    the sign of ``fmax(-0.0, 0.0)``."""

    @staticmethod
    def _arrays(dtype):
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        special = np.array(
            [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
             3 * tiny, -3 * tiny, info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0],
            dtype=dtype,
        )
        rng = np.random.default_rng(0)
        full = np.concatenate([special, rng.standard_normal(4096).astype(dtype)])
        return [special[:1], special[:3], special, full]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_where(self, dtype):
        for x in self._arrays(dtype):
            want = np.where(x > 0, x, 0.0)
            got = Tensor(x).relu().data
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), x[:3]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_bool_product(self, dtype):
        rng = np.random.default_rng(1)
        for x in self._arrays(dtype):
            grad = rng.permutation(self._arrays(dtype)[-1])[: x.size]
            t = Tensor(x, requires_grad=True)
            with np.errstate(invalid="ignore"):  # inf * 0
                t.relu().backward(grad)
                want = grad * (x > 0)
            assert t.grad.dtype == want.dtype == dtype
            assert t.grad.tobytes() == want.tobytes(), x[:3]
