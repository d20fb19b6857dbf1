"""Neural-network operations over :class:`repro.nn.tensor.Tensor`.

Convolution and pooling are implemented with explicit window extraction
(im2col).  The kernel loops run over the (small) kernel footprint only, so
the heavy lifting stays in vectorised numpy.  All operations here are fully
differentiable through the autograd engine.

Shapes follow the NCHW convention used by the paper's PyTorch
implementation: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple, Union

import numpy as np

from . import tensor as _ag
from .tensor import Tensor, _unbroadcast, as_tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "linear",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "dropout",
    "adaptive_avg_pool2d",
    "flatten",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def _conv_output_size(size: int, kernel: int, stride: int, pad: int, dilation: int) -> int:
    effective = dilation * (kernel - 1) + 1
    out = (size + 2 * pad - effective) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad}, dilation={dilation})"
        )
    return out


#: Per-thread scratch, one attribute per slot: ``[flat uint8 buffer,
#: (shape, dtype, zeros) of its last user]``.
_WORKSPACE = threading.local()


def _scratch(slot: str, shape: Tuple[int, ...], dtype, zeros: Optional[tuple] = None) -> np.ndarray:
    """A ``shape``/``dtype`` view of this thread's buffer ``slot``, for
    arrays that are dead when the requesting forward or backward call
    returns.  A slot is one flat buffer grown to its largest request — a
    pool keyed by shape would keep the union of all shapes resident.

    Contents are arbitrary unless ``zeros`` names the positions the
    caller is about to overwrite: every other position then reads zero,
    cleared only when the slot's last user differed in shape, dtype or
    ``zeros``.  A view must never reach ``_Node._accumulate``, which
    borrows by reference; per thread because in-process worker daemons
    run ops from several threads.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    slots = vars(_WORKSPACE)
    entry = slots.get(slot)
    if entry is None or entry[0].nbytes < nbytes:
        entry = slots[slot] = [np.empty(nbytes, dtype=np.uint8), None]
    view = entry[0][:nbytes].view(dtype).reshape(shape)
    user = None if zeros is None else (shape, dtype, zeros)
    if user is not None and entry[1] != user:
        view[...] = 0
    entry[1] = user
    return view


def _extract_windows(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Gather sliding windows from a padded NCHW array.

    Returns a contiguous array of shape ``(N, C, KH, KW, OH, OW)`` built
    from KH*KW strided slice copies — faster (and bit-identical to) the
    6-D ``sliding_window_view`` transpose copy
    (:func:`_extract_windows_view`, kept for equivalence testing).  The
    result is a view of this thread's ``cols`` slot (:func:`_scratch`)
    or, for a 1x1 kernel, of ``x``: the caller consumes the windows
    before it, or anyone else, asks for the next ones.
    """
    n, c = x.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh, ow = out_hw
    if kh == 1 and kw == 1:
        # A 1x1 kernel gathers no neighbourhood: the "extraction" is a
        # strided subsample of x.  At stride 1 that is x itself — return
        # a reshape view, zero copies.  The view aliases x; every caller
        # only reads it, and within a step x is never mutated after the
        # op that produced it.  Bits are unchanged: the downstream GEMM
        # sees the same contiguous bytes the copy would have held.
        win = x[:, :, : (oh - 1) * sh + 1 : sh, : (ow - 1) * sw + 1 : sw]
        if win.flags["C_CONTIGUOUS"]:
            return win.reshape(n, c, 1, 1, oh, ow)
    cols = _scratch("cols", (n, c, kh, kw, oh, ow), x.dtype)
    for i in range(kh):
        hi = i * dh
        for j in range(kw):
            wj = j * dw
            cols[:, :, i, j] = x[:, :, hi : hi + sh * oh : sh, wj : wj + sw * ow : sw]
    return cols


def _extract_windows_view(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Reference implementation of :func:`_extract_windows` via a single
    ``sliding_window_view``; kept for equivalence testing."""
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh, ow = out_hw
    eh = dh * (kh - 1) + 1
    ew = dw * (kw - 1) + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (eh, ew), axis=(2, 3))
    # (N, C, OH, OW, KH, KW): pick the strided output positions, then the
    # dilated taps inside each effective window.
    windows = windows[:, :, : sh * (oh - 1) + 1 : sh, : sw * (ow - 1) + 1 : sw, ::dh, ::dw]
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _scatter_windows(
    cols: np.ndarray,
    x_shape: Tuple[int, ...],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inverse of :func:`_extract_windows`: scatter-add windows back.

    ``out``, when given, is zero-filled and reused as the destination
    (the scatter accumulates, so it must be reset every call).
    """
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    oh, ow = cols.shape[-2:]
    if out is None:
        out = np.zeros(x_shape, dtype=cols.dtype)
    else:
        out[...] = 0.0
    for i in range(kh):
        hi = i * dh
        for j in range(kw):
            wj = j * dw
            out[:, :, hi : hi + sh * oh : sh, wj : wj + sw * ow : sw] += cols[:, :, i, j]
    return out


#: Bytes of im2col windows per sub-batch.  Forward, dW and dX walk the
#: batch in blocks this size, so a block's windows are still in L2 when
#: its GEMM reads them and the ``cols`` slot never holds a full batch.
_BLOCK_BYTES = 1 << 20


def _sub_batches(n: int, sample_bytes: int):
    """``(lo, hi)`` batch ranges holding ~``_BLOCK_BYTES`` of windows each."""
    step = max(1, _BLOCK_BYTES // max(1, sample_bytes))
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _padded(x: np.ndarray, padding: Tuple[int, int], fill: float = 0.0) -> np.ndarray:
    """A new array: ``x`` with a ``fill`` border on its last two axes
    (``np.pad``'s bytes without its generic per-axis machinery)."""
    ph, pw = padding
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * ph, w + 2 * pw)
    out = np.zeros(shape, x.dtype) if fill == 0.0 else np.full(shape, fill, x.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _conv_forward(
    x_pad: np.ndarray,
    w_r: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """``w_r (G, OC/G, K) @ im2col(x_pad) (N, G, K, P)`` as ``(N, G, OC/G,
    P)``.  The windows exist one sub-batch at a time, in the ``cols``
    slot.  ``matmul`` runs one GEMM per (sample, group) whatever the
    batch, so neither the block size nor the process changes a bit."""
    n, c = x_pad.shape[:2]
    groups, ocg, k = w_r.shape
    p = out_hw[0] * out_hw[1]
    out = np.empty((n, groups, ocg, p), dtype=np.result_type(x_pad, w_r))
    for lo, hi in _sub_batches(n, c * kernel[0] * kernel[1] * p * x_pad.itemsize):
        cols = _extract_windows(x_pad[lo:hi], kernel, stride, dilation, out_hw)
        np.matmul(w_r, cols.reshape(hi - lo, groups, k, p), out=out[lo:hi])
    return out


def _conv_dw(
    grad: np.ndarray,
    x_pad: np.ndarray,
    weight_shape: Tuple[int, ...],
    stride: Tuple[int, int],
    dilation: Tuple[int, int],
    groups: int,
    members: int = 1,
) -> np.ndarray:
    """Weight gradient of conv2d.  Nothing kept the forward's windows:
    each sub-batch is re-extracted into the ``cols`` slot and contracted
    with its slice of ``grad``; the per-sample products land in one
    ``(N, G, OC/G, K)`` array that is reduced over the batch at the end —
    over each member's rows when ``members`` > 1, giving
    ``(members, *weight_shape)``."""
    n, oc, oh, ow = grad.shape
    c = x_pad.shape[1]
    _, cg, kh, kw = weight_shape
    k, p = cg * kh * kw, oh * ow
    grad_r = grad.reshape(n, groups, oc // groups, p)
    prod = np.empty((n, groups, oc // groups, k), dtype=grad.dtype)
    for lo, hi in _sub_batches(n, c * kh * kw * p * grad.itemsize):
        cols = _extract_windows(x_pad[lo:hi], (kh, kw), stride, dilation, (oh, ow))
        cols_t = cols.reshape(hi - lo, groups, k, p).transpose(0, 1, 3, 2)
        np.matmul(grad_r[lo:hi], cols_t, out=prod[lo:hi])
    dw = _ag._member_sum(prod, members, (0,))
    return dw.reshape(weight_shape if members == 1 else (members,) + weight_shape)


def _conv_dx(
    grad: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, ...],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    dilation: Tuple[int, int],
    groups: int,
) -> np.ndarray:
    """Input gradient of conv2d as a transposed convolution: zero-stuff
    ``grad`` by the stride, pad by the dilated kernel extent, and
    contract with the spatially flipped weights in a grouped GEMM — no
    Python loop over kernel taps.

    Window origin ``r`` of the stuffed gradient is row ``r`` of the
    *padded* input, so only the origins ``padding .. padding + (H, W)``
    are extracted: the gradient of the padding is never computed, and
    the result is ``x``'s own contiguous gradient.  Equivalent to
    ``_scatter_windows(<dX cols>)`` (the reference kept above for
    equivalence testing) up to floating-point reduction order.

    The stuffed gradient and each sub-batch's windows are dead once the
    GEMM has run and live in :func:`_scratch`; the result is a new array,
    which ``_Node._accumulate`` may borrow.
    """
    n, oc, oh, ow = grad.shape
    _, c, h, w = x_shape
    ocg, cg, kh, kw = weight.shape[0] // groups, weight.shape[1], weight.shape[2], weight.shape[3]
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    eh = dh * (kh - 1) + 1
    ew = dw * (kw - 1) + 1
    # Zero-stuffed gradient, padded by the dilated kernel extent — and
    # out to x's last row/column where the stride left a tail no window
    # covers (those origins read zeros only).  The zeros between strided
    # taps survive calls with the same geometry.
    gh = sh * (oh - 1) + 1
    gw_ = sw * (ow - 1) + 1
    if kh == kw == sh == sw == 1:
        stuffed = grad  # a pointwise conv at stride 1: nothing to stuff
    else:
        stuffed = _scratch(
            "stuffed",
            (n, oc, max(gh + eh - 1, ph + h) + eh - 1, max(gw_ + ew - 1, pw + w) + ew - 1),
            grad.dtype,
            zeros=(eh, ew, sh, sw, oh, ow),
        )
        stuffed[:, :, eh - 1 : eh - 1 + gh : sh, ew - 1 : ew - 1 + gw_ : sw] = grad
    interior = stuffed[:, :, ph:, pw:]
    # (G, C/G, OC/G * KH * KW): weights flipped along both spatial axes,
    # grouped with input channels as the output of the transposed conv.
    w_flip = weight[:, :, ::-1, ::-1].reshape(groups, ocg, cg, kh, kw)
    w_t = np.ascontiguousarray(w_flip.transpose(0, 2, 1, 3, 4)).reshape(
        groups, cg, ocg * kh * kw
    )
    gx = np.empty((n, c, h, w), dtype=grad.dtype)
    gx_r = gx.reshape(n, groups, cg, h * w)
    for lo, hi in _sub_batches(n, oc * kh * kw * h * w * grad.itemsize):
        cols = _extract_windows(interior[lo:hi], (kh, kw), (1, 1), dilation, (h, w))
        np.matmul(w_t, cols.reshape(hi - lo, groups, ocg * kh * kw, h * w), out=gx_r[lo:hi])
    return gx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    dilation: IntPair = 1,
    groups: int = 1,
) -> Tensor:
    """2-D convolution (cross-correlation) with stride/padding/dilation/groups.

    Parameters mirror ``torch.nn.functional.conv2d``.  ``weight`` has shape
    ``(out_channels, in_channels // groups, KH, KW)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    dilation = _pair(dilation)
    n, c, h, w = x.shape
    oc, cg, kh, kw = weight.shape
    if c != cg * groups:
        raise ValueError(
            f"input channels {c} incompatible with weight {weight.shape} and groups={groups}"
        )
    if oc % groups:
        raise ValueError(f"out_channels {oc} not divisible by groups {groups}")
    oh = _conv_output_size(h, kh, stride[0], padding[0], dilation[0])
    ow = _conv_output_size(w, kw, stride[1], padding[1], dilation[1])
    # Saved for backward: the padded input (dW re-extracts its windows
    # from it) and the weights (dX); the output is not.
    x_pad = x.data if padding == (0, 0) else _padded(x.data, padding)
    wd = weight.data
    xn, wn = x._node, weight._node
    bn = None if bias is None else bias._node
    members = x.members
    w_r = wd.reshape(groups, oc // groups, cg * kh * kw)
    out = _conv_forward(x_pad, w_r, (kh, kw), stride, dilation, (oh, ow))
    out = out.reshape(n, oc, oh, ow)
    if bias is not None:
        out = np.add(out, bias.data.reshape(1, oc, 1, 1))

    def backward(grad: np.ndarray) -> None:
        if wn.requires_grad:
            wn._accumulate(_conv_dw(grad, x_pad, wn.shape, stride, dilation, groups, members))
        if bn is not None and bn.requires_grad:
            bn._accumulate(_ag._member_sum(grad, members, (0, 2, 3)))
        if xn.requires_grad:
            xn._accumulate(_conv_dx(grad, wd, xn.shape, stride, padding, dilation, groups))

    parents = (xn, wn) if bn is None else (xn, wn, bn)
    return Tensor._make(out, parents, backward)


def max_pool2d(
    x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling over NCHW input.  Padded cells never win (padded with -inf)."""
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kernel[0], stride[0], padding[0], 1)
    ow = _conv_output_size(w, kernel[1], stride[1], padding[1], 1)

    ph, pw = padding
    pad_shape = (n, c, h + 2 * ph, w + 2 * pw)
    x_pad = _padded(x.data, padding, fill=-np.inf)
    taps = kernel[0] * kernel[1]
    sample_bytes = c * taps * oh * ow * x_pad.itemsize
    xn = x._node
    # Saved for backward: each window's winning tap.  The padded input
    # is forward's alone and dies with it; windows are scratch, one
    # sub-batch at a time.
    arg = np.empty((n, c, oh, ow), dtype=np.intp)
    out = np.empty((n, c, oh, ow), dtype=x_pad.dtype)
    for lo, hi in _sub_batches(n, sample_bytes):
        cols = _extract_windows(x_pad[lo:hi], kernel, stride, (1, 1), (oh, ow))
        flat = cols.reshape(hi - lo, c, taps, oh, ow)
        flat.argmax(axis=2, out=arg[lo:hi])
        out[lo:hi] = np.take_along_axis(flat, arg[lo:hi, :, None], axis=2)[:, :, 0]

    def backward(grad: np.ndarray) -> None:
        if not xn.requires_grad:
            return
        gx_pad = np.empty(pad_shape, dtype=grad.dtype)
        for lo, hi in _sub_batches(n, sample_bytes):
            # The scratch slot holds another call's scatter: reset it.
            gflat = _scratch("gflat", (hi - lo, c, taps, oh, ow), grad.dtype)
            gflat[...] = 0.0
            np.put_along_axis(gflat, arg[lo:hi, :, None], grad[lo:hi, :, None], axis=2)
            gcols = gflat.reshape(hi - lo, c, kernel[0], kernel[1], oh, ow)
            dst = gx_pad[lo:hi]
            _scatter_windows(gcols, dst.shape, kernel, stride, (1, 1), out=dst)
        xn._accumulate(gx_pad[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out, (xn,), backward)


def _pool_taps(
    kernel: Tuple[int, int], stride: Tuple[int, int], out_hw: Tuple[int, int]
):
    """The (row, col) slice pair of each kernel tap over a padded input.

    Tap ``(i, j)``'s slices select the (OH, OW) input positions that the
    kernel element ``(i, j)`` touches across all windows; iterating taps
    in fixed row-major order keeps strided-add accumulation orders (and
    therefore floating-point results) reproducible call to call.
    """
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out_hw
    for i in range(kh):
        for j in range(kw):
            yield (
                slice(i, i + sh * (oh - 1) + 1, sh),
                slice(j, j + sw * (ow - 1) + 1, sw),
            )


def _box_sum(
    x_pad: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    out_hw: Tuple[int, int],
) -> np.ndarray:
    """Per-window sum via KH*KW strided adds — no window materialisation.

    Equivalent to ``_extract_windows(...).sum(axis=(2, 3))`` but touches
    each input element once instead of writing a KH*KW-times-larger
    column buffer first.
    """
    taps = _pool_taps(kernel, stride, out_hw)
    hs, ws = next(taps)
    out = np.empty(x_pad.shape[:2] + out_hw, dtype=x_pad.dtype)
    np.copyto(out, x_pad[:, :, hs, ws])
    for hs, ws in taps:
        out += x_pad[:, :, hs, ws]
    return out


def avg_pool2d(
    x: Tensor,
    kernel_size: IntPair,
    stride: Optional[IntPair] = None,
    padding: IntPair = 0,
    count_include_pad: bool = False,
) -> Tensor:
    """Average pooling over NCHW input.

    With ``count_include_pad=False`` (the DARTS convention) each window is
    divided by the number of genuine input cells it covers.
    """
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kernel[0], stride[0], padding[0], 1)
    ow = _conv_output_size(w, kernel[1], stride[1], padding[1], 1)

    ph, pw = padding
    pad_shape = (n, c, h + 2 * ph, w + 2 * pw)
    x_pad = _padded(x.data, padding)
    if count_include_pad or (ph == 0 and pw == 0):
        divisor = np.full((oh, ow), kernel[0] * kernel[1], dtype=x.data.dtype)
    else:
        ones = _padded(np.ones((1, 1, h, w), dtype=x.data.dtype), padding)
        divisor = _box_sum(ones, kernel, stride, (oh, ow))[0, 0]
    out = _box_sum(x_pad, kernel, stride, (oh, ow)) / divisor
    xn = x._node
    # Saved for backward: the divisor.  The padded input is forward's
    # alone and dies with it.

    def backward(grad: np.ndarray) -> None:
        if not xn.requires_grad:
            return
        g = np.divide(grad, divisor, out=np.empty(grad.shape, grad.dtype))
        gx_pad = np.zeros(pad_shape, dtype=grad.dtype)
        # Every window position receives the same g, so scatter g
        # directly tap by tap — no KH*KW column buffer.
        for hs, ws in _pool_taps(kernel, stride, (oh, ow)):
            gx_pad[:, :, hs, ws] += g
        xn._accumulate(gx_pad[:, :, ph : ph + h, pw : pw + w])

    return Tensor._make(out, (xn,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling.  Only global pooling (output 1x1) is needed."""
    if output_size != 1:
        raise NotImplementedError("only global (1x1) adaptive pooling is supported")
    return x.mean(axis=(2, 3), keepdims=True)


def flatten(x: Tensor) -> Tensor:
    """Flatten all but the batch dimension."""
    return x.reshape(x.shape[0], -1)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in),
    as one node.

    With members stacked in ``x`` (:class:`~repro.nn.tensor.MemberGroup`)
    it runs each member's rows on their own, so every member's products
    and its dW / db rows are the ones it would get alone.
    """
    members = x.members
    size = x.shape[0] // members
    rows = [slice(m * size, (m + 1) * size) for m in range(members)]
    # Saved for backward: both operands' values.
    xd, wd = x.data, weight.data
    xn, wn = x._node, weight._node
    bn = None if bias is None else bias._node
    out = np.concatenate([xd[r] @ wd.T for r in rows])
    if bias is not None:
        out = out + bias.data

    def backward(grad: np.ndarray) -> None:
        if xn.requires_grad:
            xn._accumulate(np.concatenate([grad[r] @ wd for r in rows]))
        if wn.requires_grad:
            dw = [(np.swapaxes(xd[r], -1, -2) @ grad[r]).T for r in rows]
            wn._accumulate(dw[0] if members == 1 else np.stack(dw))
        if bn is not None and bn.requires_grad:
            bn._accumulate(_ag._member_sum(grad, members, (0,)))

    parents = (xn, wn) if bn is None else (xn, wn, bn)
    return Tensor._make(out, parents, backward)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # The max shift is a constant: no gradient flows through it.
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy with an analytic fused backward.

    Equivalent to ``nll_loss(log_softmax(logits), targets)`` but records a
    single graph node, which keeps the backward pass cheap on the hot path.
    With members stacked in ``logits`` the rows are that many equal
    batches and the loss is the sum of their mean losses, so each
    member's logits gradient carries its own 1/B scaling.
    """
    targets = np.asarray(targets)
    n, k = logits.shape
    members = logits.members
    rows = n // members
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), targets] - np.log(exp.sum(axis=1))
    loss = -picked.mean() if members == 1 else -picked.reshape(members, rows).mean(axis=1).sum()

    node = logits._node

    def backward(grad: np.ndarray) -> None:
        if not node.requires_grad:
            return
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        node._accumulate(g * (float(grad) / rows))

    return Tensor._make(np.asarray(loss), (node,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.data.dtype))
