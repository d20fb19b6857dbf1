"""Compiled compute engine: eager-step parity, memory and isolation.

The contract under test, in order of appearance:

* ``_Node._accumulate`` copy-on-write gradient borrowing — single-
  consumer nodes borrow the incoming array without a copy, and every
  mutation path materialises first (the aliasing regression);
* the conv2d backward contractions — the interior-only ``_conv_dx``
  and the re-extracting dW — agree with the window-algebra reference
  implementations across the kernel/stride/dilation/groups grid, with
  the deleted padded-dX formulation bit for bit, and with themselves at
  every sub-batch size;
* conv/pool scratch lives in one per-thread workspace: interleaved
  geometries never see each other's stale values, threads never see
  each other's buffers, no view of it reaches ``Tensor._accumulate``,
  and no backward closure holds more than its own padded input;
* a step's graph keeps only the arrays each backward reads (every other
  forward value is dead when the forward ends; no pool keeps a padded
  copy), and its backward releases the graph as it walks, which bounds
  a default-config step's peak memory; repeating a step retains nothing;
* every float64 step of the engine is **bit-identical** to the eager
  oracle for a sweep of sampled controller masks (gradients, buffers,
  reward, simulated compute time), float32 is tolerance-equal;
* each thread steps on its own model, and a checkpoint→resume rebuilds
  it from scratch — it is derived state and never serialized;
* a worker computes in the dtype of the supernet config its server sent
  at init, not in its own environment.
"""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import repro.nn as nn
from repro.checkpoint import restore_search_state, save_search_state
from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.federated import FederatedSearchServer, Participant, build_backend
from repro.federated import compiled
from repro.federated.participant import (
    LocalStepTask,
    _run_eager_step,
    run_local_step,
)
from repro.nn import Tensor, tape
from repro.nn.tensor import _Node, _released
from repro.nn.functional import (
    _conv_dx,
    _extract_windows,
    _extract_windows_view,
    _scatter_windows,
    _scratch,
)
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)
TINY_F32 = dataclasses.replace(TINY, compute_dtype="float32")


@pytest.fixture(autouse=True)
def _tape_defaults_between_tests():
    yield
    compiled.reset_cache()
    tape.reset_stats()


# ----------------------------------------------------------------------
# Satellite 1: _Node._accumulate copy-on-write
# ----------------------------------------------------------------------


class TestAccumulateCopyOnWrite:
    def test_first_arrival_borrows_without_copy(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g = np.arange(4.0)
        t._node._accumulate(g)
        assert t.grad is g  # borrowed, not copied
        assert not t._node._grad_owned

    def test_second_arrival_leaves_borrowed_array_untouched(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g1 = np.arange(4.0)
        g1_snapshot = g1.copy()
        t._node._accumulate(g1)
        t._node._accumulate(np.ones(4))
        np.testing.assert_array_equal(g1, g1_snapshot)
        np.testing.assert_array_equal(t.grad, g1_snapshot + 1.0)
        assert t._node._grad_owned

    def test_own_grad_materialises_private_copy(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g = np.arange(4.0)
        t._node._accumulate(g)
        owned = t.own_grad()
        assert owned is not g
        owned += 10.0
        np.testing.assert_array_equal(g, np.arange(4.0))

    def test_non_contiguous_or_wrong_dtype_is_copied(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        strided = np.arange(8.0).reshape(2, 4)[:, ::2]
        t._node._accumulate(strided)
        assert t.grad is not strided
        assert t.grad.flags["C_CONTIGUOUS"]
        t2 = Tensor(np.zeros(3), requires_grad=True)
        f32 = np.ones(3, dtype=np.float32)
        t2._node._accumulate(f32)
        assert t2.grad is not f32
        assert t2.grad.dtype == np.float64

    def test_shared_upstream_aliasing_regression(self):
        # a + b hands the SAME upstream array to both operands'
        # _accumulate.  Neither side may mutate it in place, or the
        # other operand's gradient silently changes with it.
        a = Tensor(np.zeros(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (a + b).backward(np.arange(4.0))
        assert a.grad is b.grad  # both borrowed the shared upstream
        owned = a.own_grad()
        owned[...] = -1.0
        np.testing.assert_array_equal(b.grad, np.arange(4.0))


# ----------------------------------------------------------------------
# Satellite 2: conv backward contraction fast paths across the grid
# ----------------------------------------------------------------------

GRID = [
    # (kernel, stride, padding, dilation, groups)
    ((3, 3), (1, 1), (1, 1), (1, 1), 1),
    ((3, 3), (2, 2), (1, 1), (1, 1), 1),
    ((3, 3), (1, 1), (2, 2), (2, 2), 1),
    ((5, 5), (1, 1), (2, 2), (1, 1), 1),
    ((1, 1), (1, 1), (0, 0), (1, 1), 1),
    ((1, 1), (2, 2), (0, 0), (1, 1), 1),
    ((3, 3), (1, 1), (1, 1), (1, 1), 2),
    ((3, 3), (2, 2), (1, 1), (1, 1), 4),
    ((3, 1), (1, 2), (1, 0), (1, 1), 1),
    ((1, 1), (1, 1), (1, 2), (1, 1), 2),
    ((1, 1), (3, 3), (0, 0), (1, 1), 1),
    ((5, 5), (2, 2), (4, 4), (2, 2), 4),
]


@pytest.mark.parametrize("kernel,stride,padding,dilation,groups", GRID)
class TestConvBackwardGrid:
    def _setup(self, kernel, stride, padding, dilation, groups, seed=0):
        rng = np.random.default_rng(seed)
        n, c, h, w = 2, 4, 9, 9
        oc = 8
        x = rng.standard_normal((n, c, h, w))
        weight = rng.standard_normal((oc, c // groups) + kernel)
        ph, pw = padding
        x_pad = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
        oh = (x_pad.shape[2] - (dilation[0] * (kernel[0] - 1) + 1)) // stride[0] + 1
        ow = (x_pad.shape[3] - (dilation[1] * (kernel[1] - 1) + 1)) // stride[1] + 1
        grad = rng.standard_normal((n, oc, oh, ow))
        return x, x_pad, weight, grad, (oh, ow)

    def test_extract_windows_matches_view_reference(
        self, kernel, stride, padding, dilation, groups
    ):
        _, x_pad, _, _, out_hw = self._setup(
            kernel, stride, padding, dilation, groups
        )
        fast = _extract_windows(x_pad, kernel, stride, dilation, out_hw)
        ref = _extract_windows_view(x_pad, kernel, stride, dilation, out_hw)
        np.testing.assert_array_equal(np.asarray(fast), ref)

    def test_conv_dx_matches_scatter_reference(
        self, kernel, stride, padding, dilation, groups
    ):
        x, x_pad, weight, grad, out_hw = self._setup(
            kernel, stride, padding, dilation, groups
        )
        n, oc = grad.shape[:2]
        oh, ow = out_hw
        kh, kw = kernel
        cg = weight.shape[1]
        # Reference: per-window dX columns via the adjoint einsum, then
        # window scatter-add — the formulation _conv_dx replaces with a
        # transposed-convolution GEMM over x's own positions.
        w_r = weight.reshape(groups, oc // groups, cg * kh * kw)
        grad_r = grad.reshape(n, groups, oc // groups, oh * ow)
        gcols = np.einsum("gok,ngop->ngkp", w_r, grad_r)
        gcols = gcols.reshape(n, groups * cg, kh, kw, oh, ow)
        ref = _scatter_windows(gcols, x_pad.shape, kernel, stride, dilation)

        got = _conv_dx(grad, weight, x.shape, stride, padding, dilation, groups)
        assert got.shape == x.shape and got.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(
            got, _interior(ref, x.shape, padding), rtol=1e-12, atol=1e-12
        )

    def test_interior_dx_equals_padded_formulation_cropped(
        self, kernel, stride, padding, dilation, groups
    ):
        """The gradient of the padding was computed and sliced away; not
        computing it leaves the interior where it was — including the
        rows a stride leaves uncovered (kernel 1, stride 2, no padding).
        Each output column is its own dot product, so only the GEMM's
        column count changed: equal to the last ulp on any geometry."""
        x, x_pad, weight, grad, _ = self._setup(
            kernel, stride, padding, dilation, groups
        )
        want = _interior(
            _conv_dx_padded(grad, weight, x_pad.shape, stride, dilation, groups),
            x.shape, padding,
        )
        got = _conv_dx(grad, weight, x.shape, stride, padding, dilation, groups)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_conv_dx_buffer_reuse_is_stable(
        self, kernel, stride, padding, dilation, groups
    ):
        """The stale-zero hazard: ``_conv_dx`` writes only the strided
        taps of its zero-stuffed gradient, so a different geometry run
        through the shared workspace in between must not leave values
        where this one expects zeros."""
        x, _, weight, grad, _ = self._setup(
            kernel, stride, padding, dilation, groups
        )
        args = (grad, weight, x.shape, stride, padding, dilation, groups)
        first = _conv_dx(*args)
        # A different (kernel, stride, dilation) pattern and different
        # data through the same workspace ...
        here = GRID.index((kernel, stride, padding, dilation, groups))
        other = GRID[(here + 1) % len(GRID)]
        x2, _, weight2, grad2, _ = self._setup(*other, seed=1)
        _conv_dx(grad2, weight2, x2.shape, other[1], other[2], other[3], other[4])
        # ... then the original call again must reproduce call one bit
        # for bit.
        again = _conv_dx(*args)
        np.testing.assert_array_equal(first, again)

    def test_block_size_never_changes_a_bit(
        self, kernel, stride, padding, dilation, groups, monkeypatch
    ):
        """Forward, dW, dX and the bias gradient at one sample per block,
        two (n = 5 leaves a short last block), the default and one block
        for the whole batch — grouped as in the grid and depthwise."""
        rng = np.random.default_rng(11)
        n, c, oc = 5, 4, 8
        for g in {groups, c}:
            x = rng.standard_normal((n, c, 9, 9))
            weight = rng.standard_normal((oc, c // g) + kernel)
            bias = rng.standard_normal(oc)
            seed_grad = None
            runs = []
            for block in (1, 6_000, 50_000, None, 2**30):
                with monkeypatch.context() as patch:
                    if block is not None:
                        patch.setattr(nn.functional, "_BLOCK_BYTES", block)
                    xt, wt, bt = (
                        Tensor(a.copy(), requires_grad=True) for a in (x, weight, bias)
                    )
                    out = nn.functional.conv2d(
                        xt, wt, bt, stride=stride, padding=padding,
                        dilation=dilation, groups=g,
                    )
                    if seed_grad is None:
                        seed_grad = rng.standard_normal(out.shape)
                    out.backward(seed_grad)
                runs.append((out.data, wt.grad, xt.grad, bt.grad))
            for run in runs[1:]:
                for want, got in zip(runs[0], run):
                    assert want.tobytes() == got.tobytes()

    def test_conv2d_gradients_match_unfused_reference(
        self, kernel, stride, padding, dilation, groups
    ):
        x, x_pad, weight, grad, out_hw = self._setup(
            kernel, stride, padding, dilation, groups
        )
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(weight.copy(), requires_grad=True)
        out = nn.functional.conv2d(
            xt, wt, stride=stride, padding=padding, dilation=dilation, groups=groups
        )
        out.backward(grad)

        n, oc = grad.shape[:2]
        oh, ow = out_hw
        kh, kw = kernel
        cg = weight.shape[1]
        cols = _extract_windows_view(x_pad, kernel, stride, dilation, (oh, ow))
        cols_r = cols.reshape(n, groups, cg * kh * kw, oh * ow)
        grad_r = grad.reshape(n, groups, oc // groups, oh * ow)
        dw_ref = np.einsum("ngop,ngkp->gok", grad_r, cols_r).reshape(weight.shape)
        np.testing.assert_allclose(wt.grad, dw_ref, rtol=1e-12, atol=1e-12)

        gcols = np.einsum(
            "gok,ngop->ngkp", weight.reshape(groups, oc // groups, cg * kh * kw), grad_r
        ).reshape(n, groups * cg, kh, kw, oh, ow)
        dx_pad_ref = _scatter_windows(gcols, x_pad.shape, kernel, stride, dilation)
        ph, pw = padding
        h, w = x.shape[2:]
        dx_ref = dx_pad_ref[:, :, ph : ph + h, pw : pw + w]
        np.testing.assert_allclose(xt.grad, dx_ref, rtol=1e-12, atol=1e-12)


def _interior(padded, x_shape, padding):
    (ph, pw), (h, w) = padding, x_shape[2:]
    return padded[:, :, ph : ph + h, pw : pw + w]


def _conv_dx_padded(grad, weight, x_pad_shape, stride, dilation, groups):
    """Oracle: the dX formulation ``_conv_dx`` had before it stopped
    computing the gradient of the padding — one GEMM over every covered
    position of the *padded* input, zeros beyond the last window tap."""
    n, oc, oh, ow = grad.shape
    _, c, hp, wp = x_pad_shape
    ocg, cg, kh, kw = oc // groups, *weight.shape[1:]
    (sh, sw), (dh, dw) = stride, dilation
    eh, ew = dh * (kh - 1) + 1, dw * (kw - 1) + 1
    gh, gw = sh * (oh - 1) + 1, sw * (ow - 1) + 1
    stuffed = np.zeros((n, oc, gh + 2 * (eh - 1), gw + 2 * (ew - 1)))
    stuffed[:, :, eh - 1 : eh - 1 + gh : sh, ew - 1 : ew - 1 + gw : sw] = grad
    ch, cw = gh + eh - 1, gw + ew - 1
    cols = _extract_windows(stuffed, (kh, kw), (1, 1), dilation, (ch, cw))
    w_flip = weight[:, :, ::-1, ::-1].reshape(groups, ocg, cg, kh, kw)
    w_t = np.ascontiguousarray(w_flip.transpose(0, 2, 1, 3, 4)).reshape(
        groups, cg, ocg * kh * kw
    )
    gx = np.matmul(w_t, cols.reshape(n, groups, ocg * kh * kw, ch * cw))
    out = np.zeros(x_pad_shape)
    out[:, :, :ch, :cw] = gx.reshape(n, c, ch, cw)
    return out


#: (kernel, stride, padding, dilation, depthwise) of every conv the search
#: space builds that needs a dX: separable and dilated depthwise 3x3/5x5
#: at stride 1 and 2, their pointwise 1x1, FactorizedReduce's 1x1 stride 2.
SEARCH_SPACE_CONVS = [
    (k, s, d * (k // 2), d, True) for k in (3, 5) for s in (1, 2) for d in (1, 2)
] + [(1, 1, 0, 1, False), (1, 2, 0, 1, False)]


@pytest.mark.parametrize("size,channels", [(16, 6), (8, 12), (4, 24), (8, 4)])
@pytest.mark.parametrize("k,s,p,d,depthwise", SEARCH_SPACE_CONVS)
def test_interior_dx_is_the_padded_formulation_bit_for_bit(
    size, channels, k, s, p, d, depthwise
):
    """What the golden digests rest on: at the shapes the default and
    test configs produce (even maps; depthwise or 1x1 kernels) dropping
    the padding's columns from the GEMM moves no bit of the rest."""
    if size + 2 * p < d * (k - 1) + 1:
        pytest.skip("kernel larger than the padded map")
    rng = np.random.default_rng(5)
    groups = channels if depthwise else 1
    oc = channels if s == 1 else channels // 2 * (2 if depthwise else 1)
    x_shape = (8, channels, size, size)
    weight = rng.standard_normal((oc, channels // groups, k, k))
    o = (size + 2 * p - d * (k - 1) - 1) // s + 1
    grad = rng.standard_normal((8, oc, o, o))
    x_pad_shape = (8, channels, size + 2 * p, size + 2 * p)
    want = _interior(
        _conv_dx_padded(grad, weight, x_pad_shape, (s, s), (d, d), groups),
        x_shape, (p, p),
    )
    got = _conv_dx(grad, weight, x_shape, (s, s), (p, p), (d, d), groups)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_interior_dx_at_16_output_channels_may_move_one_position_by_an_ulp():
    """Where that bit identity stops, pinned so it is not silent:
    ``FactorizedReduce``'s 1x1 stride-2 conv at 16 output channels (the
    reduction cell of an ``init_channels=16`` config).  The padded
    formulation's GEMM had 15 x 15 columns and OpenBLAS rounds an odd
    last column — position (14, 14) — through its tail kernel once the
    contraction is 16 long; over x's own 16 x 16 columns there is no
    tail.  Seeded runs at such widths differ from the parent commit in
    the last ulp there; every other position is the same bytes."""
    rng = np.random.default_rng(5)
    x_shape, oc = (8, 32, 16, 16), 16
    weight = rng.standard_normal((oc, 32, 1, 1))
    grad = rng.standard_normal((8, oc, 8, 8))
    want = _conv_dx_padded(grad, weight, x_shape, (2, 2), (1, 1), 1)
    got = _conv_dx(grad, weight, x_shape, (2, 2), (0, 0), (1, 1), 1)
    tail = np.zeros(x_shape, dtype=bool)
    tail[:, :, 14, 14] = True
    assert got[~tail].tobytes() == want[~tail].tobytes()
    ulp = np.finfo(np.float64).eps * np.abs(want).max()
    np.testing.assert_allclose(got[tail], want[tail], rtol=0, atol=2 * ulp)


def _race(threads):
    """Start and join ``threads`` under a 1e-5 s switch interval, so
    unguarded shared state is hit within a few steps."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _conv_roundtrip(shape, kernel, stride, seed):
    """conv2d -> max_pool2d forward + backward; returns (out, dx, dw)."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = Tensor(rng.standard_normal((6, shape[1]) + kernel), requires_grad=True)
    y = nn.functional.conv2d(x, w, stride=stride, padding=kernel[0] // 2)
    out = nn.functional.max_pool2d(y, 3, stride=1, padding=1)
    out.backward(rng.standard_normal(out.shape))
    return out.data, x.grad, w.grad


class TestConvWorkspace:
    def test_threads_with_different_shapes_equal_serial(self):
        """The workspace is per thread: two threads pushing different
        geometries through conv2d/max_pool2d forward + backward at once
        compute what each computes alone."""
        jobs = [((4, 3, 12, 12), (3, 3), 1), ((2, 5, 9, 9), (5, 5), 2)]
        rounds = 25
        serial = [
            [_conv_roundtrip(*job, seed=r) for r in range(rounds)] for job in jobs
        ]
        got = [None] * len(jobs)

        def work(k):
            got[k] = [_conv_roundtrip(*jobs[k], seed=r) for r in range(rounds)]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        _race(threads)
        for want_rounds, got_rounds in zip(serial, got):
            for want, have in zip(want_rounds, got_rounds):
                for a, b in zip(want, have):
                    np.testing.assert_array_equal(a, b)

    def test_slot_is_one_flat_buffer_viewed_at_each_shape(self):
        big = _scratch("test-slot", (4, 6), np.float64, zeros=("a",))
        assert not big.any()
        big[...] = 1.0
        small = _scratch("test-slot", (3, 2), np.float32)
        assert np.shares_memory(small, big) and small.dtype == np.float32
        # Same user as the first call, but the slot was scribbled on since.
        assert not _scratch("test-slot", (4, 6), np.float64, zeros=("a",)).any()
        grown = _scratch("test-slot", (5, 6), np.float64)
        assert not np.shares_memory(grown, big)


@pytest.fixture(scope="module")
def default_step():
    """``run()`` executes one fixed-seed default-config local step (the
    paper's K = 10 setting: 16x16 images, batch 16, 6 channels)."""
    from repro import ExperimentConfig, FederatedModelSearch

    pipeline = FederatedModelSearch(ExperimentConfig(seed=0, backend="serial"))
    try:
        config = pipeline.config.supernet_config()
        member = pipeline.participants[0]
        mask = pipeline.policy.sample_mask()
        state = {
            name: np.array(value)
            for name, value in pipeline.supernet.submodel_state(mask).items()
        }
    finally:
        pipeline.close()
    task = LocalStepTask(
        participant_id=0, round_index=0, mask=mask, state=state, batch_seed=123
    )

    def run():
        return run_local_step(
            task, member.dataset, member.loader.batch_size, config,
            device=member.device,
        )

    return run


def _closure_arrays(fn):
    """name -> ndarrays ``fn``'s closure cells hold, directly or in a
    container (tensors are graph nodes of their own)."""
    found = {}

    def visit(name, obj):
        if isinstance(obj, np.ndarray):
            found.setdefault(name, []).append(obj)
        elif isinstance(obj, (dict, list, tuple)):
            for item in obj.values() if isinstance(obj, dict) else obj:
                visit(name, item)

    for name, value in _closure_cells(fn).items():
        visit(name, value)
    return found


def _closure_cells(fn):
    """name -> value of each bound free variable of ``fn``."""
    cells = {}
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            cells[name] = cell.cell_contents
        except ValueError:  # a nonlocal not bound yet
            pass
    return cells


def _owner(array):
    """The array whose memory ``array`` views (itself if it owns it)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _owner_nbytes(array):
    return _owner(array).nbytes


class TestDefaultConfigStepMemory:
    def test_step_peak_and_nothing_retained(self, default_step):
        """Traced peak 20.0 MiB on this step (bound: that plus 20 %).
        It was 132 MiB before the graph was released as backward walks
        it, every conv stopped keeping its forward windows and dX stopped
        covering the padding, and 32.8 MiB while the graph's nodes still
        held every forward value.  The same step again leaves nothing
        behind (a replay engine used to retain its graph here)."""
        compiled.reset_cache()
        vars(nn.functional._WORKSPACE).clear()  # cold workspace: worst case
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            default_step()
            peak = tracemalloc.get_traced_memory()[1] - base
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            default_step()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tape.stats().snapshot() == {"steps": 2, "replays": 0}
        assert peak <= 24 * 2**20, f"step peak {peak / 2**20:.1f} MiB"
        assert retained < 2**20, f"second step retained {retained / 2**20:.1f} MiB"

    def test_no_closure_retains_scratch(self, default_step, monkeypatch):
        """No conv/pool backward closure holds an array larger than its
        own padded input or its output: no windows, forward's or
        backward's.
        Nothing a closure holds, or a node's ``_accumulate`` is handed,
        is a view of the workspace, whose window slots stay a few blocks
        small."""
        accumulate = _Node._accumulate
        workspace = vars(nn.functional._WORKSPACE)
        nodes = []
        make = Tensor._make

        def in_workspace(array):
            return any(np.may_share_memory(array, buf) for buf, _ in workspace.values())

        def checked(self, grad):
            assert not in_workspace(grad)
            accumulate(self, grad)

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            op = getattr(backward, "__qualname__", "").split(".")[0]
            if op in ("conv2d", "max_pool2d", "avg_pool2d"):
                # What the closure holds once forward is done; backward
                # releases it.
                nodes.append((op, out._node, _closure_cells(backward), _closure_arrays(backward)))
            return out

        monkeypatch.setattr(_Node, "_accumulate", checked)
        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        default_step()
        default_step()
        cm = _only_model()
        assert set(workspace) == {"stuffed", "cols", "gflat"}
        for slot in ("cols", "gflat"):
            assert workspace[slot][0].nbytes <= 4 * nn.functional._BLOCK_BYTES
        seen = set()
        for op, node, cells, held in nodes:
            seen.add(op)
            itemsize = node.dtype.itemsize
            # A pool's padded input is the size of its dX result buffer.
            padded = math.prod(cells.get("pad_shape", ())) * itemsize
            limit = max(
                [math.prod(node.shape) * itemsize, padded]
                + [_owner_nbytes(a) for a in held.get("x_pad", [])]
            )
            for name, arrays in held.items():
                for array in arrays:
                    assert not in_workspace(array), (op, name)
                    if _owner(array) is not cm.arena.data:  # the weights
                        assert _owner_nbytes(array) <= limit, (op, name, array.shape)
        assert seen == {"conv2d", "max_pool2d", "avg_pool2d"}

    def test_forward_leaves_alive_only_what_backward_reads(
        self, default_step, monkeypatch
    ):
        """At the end of a step's forward, an op's output is
        alive only if it is the logits or some backward closure saved it
        (a padding-free conv's input, the classifier's input).  Every
        other forward value died when the forward dropped its tensor.  No
        backward closure holds a tensor (only parent nodes), and the
        saved arrays are each op's own: conv inputs, batch-norm centred
        inputs and stds, relu masks, pool winning taps."""
        outputs, closures, saved_by = [], [], {}
        make = Tensor._make

        def recording(data, parents, backward):
            out = make(data, parents, backward)
            outputs.append((weakref.ref(out.data), backward.__qualname__))
            closures.append(backward)
            return out

        loss_fn = nn.functional.cross_entropy

        def end_of_forward(logits, targets):
            gc.collect()
            saved = {
                id(_owner(array))
                for fn in closures
                for arrays in _closure_arrays(fn).values()
                for array in arrays
            }
            alive = [(ref(), op) for ref, op in outputs if ref() is not None]
            assert any(array is logits.data for array, _ in alive)
            leaked = [
                op.split(".")[0] for array, op in alive
                if array is not logits.data and id(_owner(array)) not in saved
            ]
            assert not leaked, f"forward values alive but never read: {leaked[:8]}"
            holding = {
                fn.__qualname__ for fn in closures
                if any(isinstance(v, Tensor) for v in _closure_cells(fn).values())
            }
            assert not holding, f"backward closures holding tensors: {holding}"
            for fn in closures:
                op = fn.__qualname__.split(".<locals>")[0]
                saved_by.setdefault(op, set()).update(_closure_arrays(fn))
            return loss_fn(logits, targets)

        compiled.reset_cache()
        tape.reset_stats()
        monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
        monkeypatch.setattr(nn.functional, "cross_entropy", end_of_forward)
        default_step()
        assert tape.stats().steps == 1
        assert saved_by and len(outputs) > 100
        assert saved_by["conv2d"] <= {"x_pad", "wd"}
        assert saved_by["_batch_norm_train"] <= {"diff", "std", "small", "scale"}
        assert saved_by["Tensor.relu"] == {"mask"}
        assert saved_by["max_pool2d"] == {"arg"}
        assert saved_by["avg_pool2d"] == {"divisor"}


@pytest.mark.parametrize("pool", ["max_pool2d", "avg_pool2d"])
def test_pool_closure_holds_no_padded_copy(pool):
    """A pool's backward reads its winning taps (max) or its divisor
    (avg) and the input's *shape*; the padded input is forward's alone."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    out = getattr(nn.functional, pool)(x, 3, stride=1, padding=1)
    padded = 2 * 3 * 8 * 8 * x.data.itemsize
    for name, arrays in _closure_arrays(out._node._backward).items():
        for array in arrays:
            assert _owner_nbytes(array) < padded, (name, array.shape)
            assert not np.isneginf(array).any(), name
    out.backward(np.ones(out.shape))
    assert x.grad.shape == x.shape


# ----------------------------------------------------------------------
# Eager-step parity over sampled controller masks
# ----------------------------------------------------------------------


def _make_tasks(num_masks=5, repeats=3, batch_seed0=500):
    """Tasks cycling over ``num_masks`` seeded masks, each seen
    ``repeats`` times."""
    net = Supernet(TINY, rng=np.random.default_rng(0))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(7))
    masks = [policy.sample_mask() for _ in range(num_masks)]
    return [
        LocalStepTask(
            participant_id=i % 2,
            round_index=i,
            mask=masks[i % num_masks],
            state=net.submodel_state(masks[i % num_masks]),
            batch_seed=batch_seed0 + i,
        )
        for i in range(num_masks * repeats)
    ]


def _run_all(tasks, dataset, step=run_local_step, compute_dtype="float64"):
    compiled.reset_cache()
    tape.reset_stats()
    config = dataclasses.replace(TINY, compute_dtype=compute_dtype)
    return [step(t, dataset, 8, config) for t in tasks]


def _assert_bit_equal(ref, got):
    assert set(ref.gradients) == set(got.gradients)
    for name in ref.gradients:
        np.testing.assert_array_equal(
            ref.gradients[name], got.gradients[name], err_msg=name
        )
    assert set(ref.buffers) == set(got.buffers)
    for name in ref.buffers:
        np.testing.assert_array_equal(
            ref.buffers[name], got.buffers[name], err_msg=name
        )
    assert ref.reward == got.reward
    assert ref.compute_time_s == got.compute_time_s
    assert ref.num_samples == got.num_samples


def _only_model():
    (cm,) = vars(compiled._MODELS).values()
    return cm


@pytest.fixture(scope="module")
def tiny_dataset():
    train, _ = synth_cifar10(
        seed=1, train_per_class=10, test_per_class=2, image_size=8
    )
    return train


class TestTapeParity:
    def test_float64_steps_bit_identical_to_eager(self, tiny_dataset):
        """Five masks, each three times: every step of the shared model
        is the oracle's, bit for bit."""
        tasks = _make_tasks()
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled_steps = _run_all(tasks, tiny_dataset)
        assert tape.stats().snapshot() == {"steps": 15, "replays": 0}
        for ref, got in zip(eager, compiled_steps):
            _assert_bit_equal(ref, got)

    @pytest.mark.parametrize(
        "mode_kwargs,rtol,atol",
        [(dict(compute_dtype="float32"), 1e-4, 1e-6)],
        ids=["float32"],
    )
    def test_lossy_modes_tolerance_equal(self, tiny_dataset, mode_kwargs, rtol, atol):
        """Every float32 step is within tolerance of the float64 oracle."""
        tasks = _make_tasks()
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        got_all = _run_all(tasks, tiny_dataset, **mode_kwargs)
        assert tape.stats().steps == len(tasks)
        for ref, got in zip(eager, got_all):
            for name in ref.gradients:
                np.testing.assert_allclose(
                    ref.gradients[name],
                    got.gradients[name],
                    rtol=rtol,
                    atol=atol,
                    err_msg=name,
                )
            for name in ref.buffers:
                np.testing.assert_allclose(
                    ref.buffers[name], got.buffers[name], rtol=rtol, atol=atol
                )

    def test_float32_returns_float64_wire_dtypes(self, tiny_dataset):
        tasks = _make_tasks(num_masks=1, repeats=3)
        got = _run_all(tasks, tiny_dataset, compute_dtype="float32")
        for update in got:
            for g in update.gradients.values():
                assert g.dtype == np.float64
            for b in update.buffers.values():
                assert b.dtype == np.float64

    def test_always_on_with_float64_default(self):
        """The shared-model engine is the one local-step path: nothing
        switches it off.  ``enabled()`` names the retired replay engine
        and reads False; the dtype is the supernet config's, float64
        unless it says otherwise, and no process setting overrides it."""
        assert not tape.enabled()
        assert SupernetConfig().compute_dtype == "float64"
        assert not hasattr(tape, "configure") and not hasattr(tape, "settings")
        with pytest.raises(ValueError):
            SupernetConfig(compute_dtype="float16")


# ----------------------------------------------------------------------
# Nothing is admitted: one shared model, no retained graphs
# ----------------------------------------------------------------------


class TestAdmission:
    """Every sighting of a key runs the same eager step on the shared
    model, and no sighting admits (retains) its graph."""

    def test_sightings_one_two_three(self, tiny_dataset):
        tasks = _make_tasks(num_masks=1, repeats=3)
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        tape.reset_stats()
        for count, (task, ref) in enumerate(zip(tasks, eager), start=1):
            _assert_bit_equal(ref, run_local_step(task, tiny_dataset, 8, TINY))
            assert tape.stats().snapshot() == {"steps": count, "replays": 0}

    def test_repeated_task_retains_nothing(self, tiny_dataset):
        """The same lone task three times: traced memory after the third
        step is within 1 MiB of its level after the first.  (A replay
        engine admitted the graph at the second sighting: 2.2 MiB here.)"""
        task, = _make_tasks(num_masks=1, repeats=1)
        compiled.reset_cache()
        gc.collect()
        tracemalloc.start()
        try:
            levels = []
            for _ in range(3):
                run_local_step(task, tiny_dataset, 8, TINY)
                gc.collect()
                levels.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert levels[2] - levels[0] < 2**20, [
            f"{(level - levels[0]) / 2**20:.2f} MiB" for level in levels
        ]
        assert tape.stats().snapshot() == {"steps": 3, "replays": 0}

    def test_concurrent_threads_share_one_engine_safely(self, tiny_dataset):
        """In-process worker daemons serve tasks from threads; each thread
        steps on its own model and its own member count, so steps may
        interleave freely.  Four threads on two cores, 1e-5 s switch
        interval (a shared model loses gradient names within a few
        steps)."""
        tasks = _make_tasks(num_masks=3, repeats=12)
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        got = [None] * len(tasks)

        def work(indices):
            for i in indices:
                got[i] = run_local_step(tasks[i], tiny_dataset, 8, TINY)

        threads = [
            threading.Thread(target=work, args=(range(k, len(tasks), 4),))
            for k in range(4)
        ]
        _race(threads)
        for ref, update in zip(eager, got):
            _assert_bit_equal(ref, update)

    def test_live_policy_default_config_retains_nothing(self):
        from repro import ExperimentConfig, FederatedModelSearch

        def live_graph_nodes():
            gc.collect()
            return sum(
                isinstance(node, _Node) and node._backward not in (None, _released)
                for node in gc.get_objects()
            )

        compiled.reset_cache()
        tape.reset_stats()
        before = live_graph_nodes()
        pipeline = FederatedModelSearch(ExperimentConfig(seed=0, backend="serial"))
        try:
            for _ in range(3):
                pipeline.server.run_round()
            assert live_graph_nodes() <= before, "a step's graph outlived it"
        finally:
            pipeline.close()
        assert tape.stats().snapshot() == {"steps": 30, "replays": 0}


# ----------------------------------------------------------------------
# Checkpoint -> resume: caches are derived state, rebuilt from scratch
# ----------------------------------------------------------------------


def _make_server(seed=0):
    train, _ = synth_cifar10(
        seed=1, train_per_class=10, test_per_class=2, image_size=8
    )
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    backend = build_backend("serial", participants, TINY)
    return FederatedSearchServer(
        supernet, policy, participants, rng=np.random.default_rng(seed + 4),
        backend=backend,
    )


class TestTapeCheckpointResume:
    def test_resume_rebuilds_cache_and_matches_uninterrupted(self, tmp_path):
        compiled.reset_cache()
        uninterrupted = _make_server()
        try:
            uninterrupted.run(4)
        finally:
            uninterrupted.backend.close()

        compiled.reset_cache()
        first = _make_server()
        try:
            first.run(2)
            path = tmp_path / "mid.ckpt"
            save_search_state(first, path)
        finally:
            first.backend.close()

        # Fresh process stand-in: the compiled model is gone.
        compiled.reset_cache()
        tape.reset_stats()
        second = _make_server()
        try:
            restore_search_state(second, path)
            second.run(2)
        finally:
            second.backend.close()

        # The resumed half rebuilt the model (it was never serialized),
        # yet the trajectory is bit-identical.
        assert len(vars(compiled._MODELS)) == 1 and tape.stats().steps > 0
        np.testing.assert_array_equal(
            second.policy.alpha, uninterrupted.policy.alpha
        )
        for (name, p_a), (_, p_b) in zip(
            uninterrupted.supernet.named_parameters(),
            second.supernet.named_parameters(),
        ):
            np.testing.assert_array_equal(p_a.data, p_b.data, err_msg=name)

    def test_tape_on_off_search_bit_identical(self, monkeypatch):
        from repro.federated import participant

        eager_server = _make_server()
        with monkeypatch.context() as patch:
            patch.setattr(participant, "run_local_step", _run_eager_step)
            try:
                eager_server.run(4)
            finally:
                eager_server.backend.close()

        taped_server = _make_server()
        compiled.reset_cache()
        tape.reset_stats()
        try:
            taped_server.run(4)
        finally:
            taped_server.backend.close()
        assert tape.stats().snapshot() == {"steps": 12, "replays": 0}

        np.testing.assert_array_equal(
            eager_server.policy.alpha, taped_server.policy.alpha
        )
        for (name, p_a), (_, p_b) in zip(
            eager_server.supernet.named_parameters(),
            taped_server.supernet.named_parameters(),
        ):
            np.testing.assert_array_equal(p_a.data, p_b.data, err_msg=name)


# ----------------------------------------------------------------------
# Numeric options travel as worker-init data, not through the environment
# ----------------------------------------------------------------------


class TestWorkerInitSettings:
    def test_init_payload_carries_settings_and_tolerates_their_absence(self):
        from repro.transport import codec

        payload = codec.encode_init([], TINY_F32)
        assert codec.decode_init(payload)[1].compute_dtype == "float32"
        bogus = dataclasses.replace(TINY)
        object.__setattr__(bogus, "compute_dtype", "float16")
        with pytest.raises(codec.ProtocolError):
            codec.decode_init(codec.encode_init([], bogus))

    def test_env_free_socket_worker_computes_in_the_servers_dtype(self, tiny_dataset):
        from repro.transport import SocketBackend

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--idle-timeout", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        try:
            _, host, port = worker.stdout.readline().split()
            participants = [
                Participant(0, tiny_dataset, batch_size=8, rng=np.random.default_rng(0)),
                Participant(1, tiny_dataset, batch_size=8, rng=np.random.default_rng(1)),
            ]
            tasks = _make_tasks(num_masks=1, repeats=2)
            backend = SocketBackend(participants, TINY_F32, workers=[f"{host}:{port}"])
            try:
                remote = [r.update for r in backend.run_tasks(tasks)]
            finally:
                backend.close()
            local = _run_all(tasks, tiny_dataset, compute_dtype="float32")
            for ref, got in zip(local, remote):
                _assert_bit_equal(ref, got)
            # ...and float32 is visibly not the float64 reference.
            reference = _run_all(tasks[:1], tiny_dataset, step=_run_eager_step)[0]
            assert any(
                not np.array_equal(reference.gradients[n], remote[0].gradients[n])
                for n in reference.gradients
            )
        finally:
            worker.kill()
            worker.wait(timeout=10)
            worker.stdout.close()
