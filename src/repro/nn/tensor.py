"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small,
explicit autograd engine in the spirit of PyTorch's eager mode.  Every
differentiable value is a :class:`Tensor` wrapping an ``np.ndarray``.

The graph is made of :class:`_Node` objects, not of tensors.  A tensor
is its value (``.data``) plus a reference to its node; the node holds
the gradient, the parent links and the backward closure.  A backward
closure holds its parents' *nodes* and exactly the arrays it reads (a
product's other operand, a conv's padded input, a relu's mask, ...) —
PyTorch's "saved tensors".  Any other forward value dies when the
forward code drops its tensor, so a graph waiting for ``backward`` holds
gradients-to-be and saved arrays, not every activation.
:meth:`Tensor.backward` runs a topological sweep over the nodes,
accumulating gradients.

The engine supports full numpy broadcasting.  Gradients flowing into a
broadcast operand are reduced back to the operand's shape by
:func:`_unbroadcast`.

Gradient accumulation is copy-on-write: the first gradient reaching a
node is *borrowed* by reference instead of deep-copied; a second
accumulation (or :meth:`Tensor.own_grad`) materialises a private array.
Callers that mutate ``.grad`` in place must call :meth:`Tensor.own_grad`
first (see :func:`repro.nn.optim.clip_grad_norm`).

Only float arrays participate in differentiation.  Integer tensors (e.g.
label arrays) may be wrapped for convenience but must have
``requires_grad=False``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "MemberGroup", "no_grad", "is_grad_enabled", "as_tensor"]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

class _GradMode(threading.local):
    """``no_grad``'s switch, per thread: a thread evaluating under it must
    not stop a local step on another thread from building its graph."""
    enabled = True


_GRAD = _GradMode()


class MemberGroup:
    """``count`` members stacked along the batch axis (a grouped local
    step).  The stacked input carries it, every op's output inherits it,
    and ops that reduce over the batch read it, so each member's slice
    reduces as it would alone.  With ``count`` > 1 batch-norm running
    statistics land in ``buffer_rows`` (``id(buffer) -> (count,
    *buffer.shape)``), not in the shared buffer."""

    __slots__ = ("count", "buffer_rows")

    def __init__(self, count: int):
        self.count = count
        self.buffer_rows: dict = {}


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside the block, all operations behave as pure numpy computations:
    results have ``requires_grad=False`` and no backward closures are
    recorded.  Used for evaluation and for optimizer parameter updates.
    The switch is per thread.
    """
    previous = is_grad_enabled()
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record the autograd graph."""
    return _GRAD.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Inverse of numpy broadcasting: sums over axes that were added or
    stretched when an operand of ``shape`` was broadcast to ``grad.shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _member_sum(array: np.ndarray, members: int, axis: Tuple[int, ...]) -> np.ndarray:
    """``array.sum(axis)`` of each member's slice of the batch axis,
    stacked as ``(members, ...)`` — or just ``array.sum(axis)`` for one
    member.  One reduction over the ``(members, rows, ...)`` view: numpy
    sums each member's block in the order it sums that block alone, so
    every row is bit for bit the member's own sum (the grouped-step
    tests hold it to that)."""
    if members == 1:
        return array.sum(axis=axis)
    stacked = array.reshape((members, array.shape[0] // members) + array.shape[1:])
    return stacked.sum(axis=tuple(a + 1 for a in axis))


class _Node:
    """A tensor's place in the autograd graph.

    Holds everything the backward walk touches — the gradient and its
    copy-on-write state, the parent nodes and the backward closure —
    plus the value's shape and dtype, which the borrow check of
    :meth:`_accumulate` reads.  Never the value itself: that belongs to
    the :class:`Tensor`, and a backward closure saves the arrays it
    reads explicitly.
    """

    __slots__ = (
        "_backward",
        "_parents",
        "_grad",
        "_grad_owned",
        "requires_grad",
        "shape",
        "dtype",
        "group",
    )

    def __init__(self, shape: Tuple[int, ...], dtype, requires_grad: bool, group=None):
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[_Node, ...] = ()
        self._grad: Optional[np.ndarray] = None
        #: whether ``_grad`` is a private array this node may mutate in
        #: place (copy-on-write accumulation: the first gradient is
        #: borrowed by reference and only materialised on demand).
        self._grad_owned = False
        self.requires_grad = requires_grad
        self.shape = shape
        self.dtype = dtype
        #: the :class:`MemberGroup` of the value's batch axis (None: one member)
        self.group: Optional[MemberGroup] = group

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this node's gradient.

        First arrival: *borrow* ``grad`` by reference (copy-on-write —
        materialised only if a second gradient arrives or a caller asks
        via :meth:`Tensor.own_grad`).  Borrowing skips one full array
        copy per single-consumer node; every in-place mutation site must
        go through :meth:`Tensor.own_grad`.

        Only C-contiguous arrays are borrowed: downstream reductions
        (``np.sum`` pairwise summation) are sensitive to memory layout,
        so normalising here keeps every gradient a node's backward ever
        sees C-contiguous, whoever produced it.
        """
        if self._grad is None:
            if (
                isinstance(grad, np.ndarray)
                and grad.dtype == self.dtype
                and grad.shape == self.shape
                and grad.flags["C_CONTIGUOUS"]
            ):
                self._grad = grad
                self._grad_owned = False
            else:
                self._grad = np.array(grad, dtype=self.dtype, copy=True)
                self._grad_owned = True
        elif self._grad_owned:
            self._grad += grad
        else:
            # Borrowed first gradient: leave the caller's array untouched.
            self._grad = self._grad + grad
            self._grad_owned = True


def _topo_order(root: _Node) -> "list[_Node]":
    """Topological order of ``root``'s subgraph (parents before children);
    :meth:`Tensor.backward` walks it in reverse."""
    ordered: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            ordered.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return ordered


def _released(grad: np.ndarray) -> None:
    """Stands in for the backward closure of a node whose graph a
    ``backward()`` released."""
    raise RuntimeError(
        "backward through a graph that an earlier backward() already released"
    )


def as_tensor(value: ArrayLike, dtype=np.float64) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array (or array-like) holding the tensor's value.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    group:
        The :class:`MemberGroup` stacked along ``data``'s batch axis, if any.
    """

    __slots__ = ("_data", "_node")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, group=None):
        if isinstance(data, Tensor):
            data = data._data
        data = np.asarray(data)
        if requires_grad and not np.issubdtype(data.dtype, np.floating):
            raise TypeError(
                f"only floating tensors can require grad, got {data.dtype}"
            )
        self._data = data
        self._node = _Node(data.shape, data.dtype, bool(requires_grad), group)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        # The node keeps the shape and dtype the borrow check compares
        # against (a float32 model casts its parameters after building).
        self._data = value
        node = self._node
        node.shape, node.dtype = value.shape, value.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self._node.requires_grad = bool(value)

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        # Direct assignment keeps the historical contract: the assigned
        # array belongs to this tensor and may be mutated in place.  Only
        # `_accumulate`'s borrow path sets `_grad_owned = False`.
        node = self._node
        node._grad = value
        node._grad_owned = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def members(self) -> int:
        """How many members are stacked along the batch axis."""
        group = self._node.group
        return 1 if group is None else group.count

    @property
    def is_leaf(self) -> bool:
        """True if this tensor was not produced by a recorded operation."""
        return self._node._backward is None

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_note})"

    def item(self) -> float:
        return float(self._data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy).  Alias for ``.data``."""
        return self._data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self._data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with copied data and the same flag."""
        return Tensor(self._data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable[_Node],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a non-leaf tensor whose node records ``backward`` over
        the ``parents`` nodes if grad is on, and inherits their
        :class:`MemberGroup`."""
        parents = tuple(parents)
        needs, group = False, None
        for parent in parents:
            needs = needs or parent.requires_grad
            group = group or parent.group
        needs = needs and _GRAD.enabled
        out = Tensor(data, requires_grad=needs, group=group)
        if needs:
            node = out._node
            node._parents = parents
            node._backward = backward
        return out

    def own_grad(self) -> Optional[np.ndarray]:
        """Materialise ``.grad`` as a private array and return it.

        Required before any in-place mutation of ``.grad`` — a borrowed
        gradient may be shared with another tensor (e.g. both operands
        of a same-shape ``a + b`` receive the *same* upstream array).
        """
        node = self._node
        if node._grad is not None and not node._grad_owned:
            node._grad = node._grad.copy()
            node._grad_owned = True
        return node._grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` is the gradient of the final objective w.r.t. this
        tensor; it defaults to 1 for scalar tensors.  The graph is
        released as the walk consumes it: each node's backward closure
        and parent links are cleared once it has run, so saved arrays and
        gradient buffers die node by node, and a second walk through any
        of those nodes raises.
        """
        root = self._node
        if not root.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self._data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self._data)
        grad = np.asarray(grad, dtype=self._data.dtype)
        if grad.shape != self._data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self._data.shape}"
            )

        ordered = _topo_order(root)
        root._accumulate(grad)
        while ordered:
            # Popped, so the walk itself keeps no node alive behind it.
            node = ordered.pop()
            if node._backward is None:
                continue
            if node._grad is not None:
                node._backward(node._grad)
                # Free intermediate gradient buffers: only leaves keep grads.
                if node._parents:
                    node._grad = None
            # Nothing walks this node again: its closure (saved arrays,
            # result buffers) and its hold on its parents go now, not
            # when the whole graph dies.
            node._backward = _released
            node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self._data.dtype)
        out_data = self._data + other._data
        a, b = self._node, other._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self._data
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.negative(grad, out=np.empty(grad.shape, grad.dtype)))

        return Tensor._make(out_data, (a,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, dtype=self._data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self._data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self._data.dtype)
        out_data = self._data * other._data
        a, b = self._node, other._node
        # Saved: each operand's value, only if the other needs its gradient.
        x = self._data if b.requires_grad else None
        y = other._data if a.requires_grad else None

        def backward(grad: np.ndarray) -> None:
            # Products go to C-ordered arrays of the gradient's dtype,
            # whatever the operands' layout: ``_unbroadcast`` sums them.
            if a.requires_grad:
                buf = np.multiply(grad, y, out=np.empty(grad.shape, grad.dtype))
                a._accumulate(_unbroadcast(buf, a.shape))
            if b.requires_grad:
                buf = np.multiply(grad, x, out=np.empty(grad.shape, grad.dtype))
                b._accumulate(_unbroadcast(buf, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self._data.dtype)
        out_data = self._data / other._data
        a, b = self._node, other._node
        # Saved: the divisor for either gradient, the dividend for b's.
        x = self._data if b.requires_grad else None
        y = other._data if a.requires_grad or b.requires_grad else None

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                buf = np.divide(grad, y, out=np.empty(grad.shape, grad.dtype))
                a._accumulate(_unbroadcast(buf, a.shape))
            if b.requires_grad:
                # ((-grad) * a) / b**2 computed as -(grad * a) / (b*b):
                # IEEE multiplication is sign-symmetric and numpy lowers
                # the integer power 2 to a multiply, so the bytes match
                # the single-expression form.
                buf = np.multiply(grad, x, out=np.empty(grad.shape, grad.dtype))
                np.negative(buf, out=buf)
                np.divide(buf, np.multiply(y, y, out=np.empty(y.shape, y.dtype)), out=buf)
                b._accumulate(_unbroadcast(buf, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self._data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        x = self._data
        out_data = x ** exponent
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * exponent * x ** (exponent - 1))

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self._data)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * out_data)

        return Tensor._make(out_data, (a,), backward)

    def log(self) -> "Tensor":
        x = self._data
        out_data = np.log(x)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad / x)

        return Tensor._make(out_data, (a,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self._data)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                buf = np.multiply(grad, 0.5, out=np.empty(grad.shape, grad.dtype))
                a._accumulate(np.divide(buf, out_data, out=buf))

        return Tensor._make(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self._data)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (a,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self._data))
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), backward)

    def relu(self) -> "Tensor":
        mask = self._data > 0
        # ``np.where(mask, x, 0.0)``'s bytes on numpy's fast loops: fmax
        # maps NaN and every negative to 0.0, and adding +0.0 turns the
        # -0.0 it keeps into +0.0.
        out_data = np.fmax(self._data, 0.0)
        out_data += 0.0
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                # ``grad * mask`` without the bool-to-float casting loop.
                buf = np.empty(grad.shape, grad.dtype)
                np.copyto(buf, mask)
                a._accumulate(np.multiply(grad, buf, out=buf))

        return Tensor._make(out_data, (a,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self._data)
        out_data = np.abs(self._data)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * sign)

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self._data.sum(axis=axis, keepdims=keepdims)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            buf = np.empty(a.shape, dtype=a.dtype)
            np.copyto(buf, g)
            a._accumulate(buf)

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self._data.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        x = self._data
        out_data = x.max(axis=axis, keepdims=keepdims)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = x == o
            # Split gradient evenly among ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            a._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (a,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self._data.reshape(shape)
        original = self.shape
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (a,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self._data.transpose(axes)
        inverse = np.argsort(axes)
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self._data[key]
        a = self._node

        keys = key if isinstance(key, tuple) else (key,)
        basic = all(
            k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
            for k in keys
        )

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                full = np.zeros(a.shape, dtype=a.dtype)
                if basic:
                    # No index repeats: one strided add, not add.at's
                    # element-wise scatter (the same 0.0 + g per cell).
                    full[key] += grad
                else:
                    np.add.at(full, key, grad)
                a._accumulate(full)

        return Tensor._make(out_data, (a,), backward)

    def pad2d_asymmetric(self, top: int, bottom: int, left: int, right: int) -> "Tensor":
        """Zero-pad the last two axes with independent per-side amounts."""
        if top == bottom == left == right == 0:
            return self
        interior = (
            ...,
            slice(top, top + self.shape[-2]),
            slice(left, left + self.shape[-1]),
        )
        out_data = np.zeros(
            self.shape[:-2]
            + (top + self.shape[-2] + bottom, left + self.shape[-1] + right),
            dtype=self._data.dtype,
        )
        out_data[interior] = self._data
        a = self._node

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad[interior])

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other, dtype=self._data.dtype)
        out_data = self._data @ other._data
        a, b = self._node, other._node
        # Saved: each operand's value, only if the other needs its gradient.
        x = self._data if b.requires_grad else None
        y = other._data if a.requires_grad else None

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if y.ndim == 1:
                    a._accumulate(np.outer(grad, y).reshape(a.shape))
                else:
                    g = grad @ np.swapaxes(y, -1, -2)
                    a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                if x.ndim == 1:
                    b._accumulate(np.outer(x, grad).reshape(b.shape))
                else:
                    g = np.swapaxes(x, -1, -2) @ grad
                    b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return numpy arrays)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self._data.argmax(axis=axis)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = [t._node for t in tensors]

    def backward(grad: np.ndarray) -> None:
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if node.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                node._accumulate(grad[tuple(sl)])

    return Tensor._make(out_data, nodes, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for node, g in zip(nodes, slices):
            if node.requires_grad:
                node._accumulate(g)

    return Tensor._make(out_data, nodes, backward)
