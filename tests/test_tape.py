"""Compiled compute engine: tape capture/replay parity and admission.

The contract under test, in order of appearance:

* ``Tensor._accumulate`` copy-on-write gradient borrowing — single-
  consumer nodes borrow the incoming array without a copy, and every
  mutation path materialises first (the aliasing regression);
* the conv2d backward contraction fast paths — ``_conv_dx`` and the
  cached dW executor — agree with the window-algebra reference
  implementations across the kernel/stride/dilation/groups grid;
* conv/pool scratch lives in one per-thread workspace: interleaved
  geometries never see each other's stale values, threads never see
  each other's buffers, no view of it reaches ``Tensor._accumulate``,
  and no retained closure holds more than its own activations — which
  bounds a default-config first sighting's peak memory;
* every float64 step of the engine — first sighting, admission, replay
  — is **bit-identical** to the eager oracle for a sweep of sampled
  controller masks (gradients, buffers, reward, simulated compute
  time), float32 and conv→BN→ReLU fusion are tolerance-equal;
* a graph is retained on the second sighting of its key, the retained
  bytes stay under the budget, remembered keys stay under their bound,
  and a live policy retains nothing;
* a mid-sequence input-shape change is a new key (never a stale
  replay), and a checkpoint→resume rebuilds the tape caches from
  scratch — they are derived state and never serialized;
* a worker applies the numeric options its server sent at init, not
  its own environment.
"""

import contextlib
import gc
import os
import subprocess
import sys
import threading
import tracemalloc

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
from repro.nn.functional import (
    _conv_dx,
    _extract_windows,
    _extract_windows_view,
    _scatter_windows,
    _scratch,
)
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


@pytest.fixture(autouse=True)
def _tape_defaults_between_tests():
    yield
    tape.configure(compute_dtype="float64", fusion=False)
    compiled.reset_cache()
    tape.reset_stats()


# ----------------------------------------------------------------------
# Satellite 1: Tensor._accumulate copy-on-write
# ----------------------------------------------------------------------


class TestAccumulateCopyOnWrite:
    def test_first_arrival_borrows_without_copy(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g = np.arange(4.0)
        t._accumulate(g)
        assert t._grad is g  # borrowed, not copied
        assert not t._grad_owned

    def test_second_arrival_leaves_borrowed_array_untouched(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g1 = np.arange(4.0)
        g1_snapshot = g1.copy()
        t._accumulate(g1)
        t._accumulate(np.ones(4))
        np.testing.assert_array_equal(g1, g1_snapshot)
        np.testing.assert_array_equal(t.grad, g1_snapshot + 1.0)
        assert t._grad_owned

    def test_own_grad_materialises_private_copy(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        g = np.arange(4.0)
        t._accumulate(g)
        owned = t.own_grad()
        assert owned is not g
        owned += 10.0
        np.testing.assert_array_equal(g, np.arange(4.0))

    def test_non_contiguous_or_wrong_dtype_is_copied(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        strided = np.arange(8.0).reshape(2, 4)[:, ::2]
        t._accumulate(strided)
        assert t._grad is not strided
        assert t._grad.flags["C_CONTIGUOUS"]
        t2 = Tensor(np.zeros(3), requires_grad=True)
        f32 = np.ones(3, dtype=np.float32)
        t2._accumulate(f32)
        assert t2._grad is not f32
        assert t2._grad.dtype == np.float64

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

    def test_preallocated_buffer_takes_priority(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        buf = np.empty(4)
        t._grad_buf = buf
        g = np.arange(4.0)
        t._accumulate(g)
        assert t._grad is buf  # copied into the replay buffer
        assert t._grad_owned
        np.testing.assert_array_equal(buf, g)


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
        _, x_pad, weight, grad, out_hw = self._setup(
            kernel, stride, padding, dilation, groups
        )
        n, oc = grad.shape[:2]
        oh, ow = out_hw
        kh, kw = kernel
        cg = weight.shape[1]
        # Reference: per-window dX columns via the adjoint einsum, then
        # window scatter-add — the formulation _conv_dx replaces with a
        # single transposed-convolution GEMM.
        w_r = weight.reshape(groups, oc // groups, cg * kh * kw)
        grad_r = grad.reshape(n, groups, oc // groups, oh * ow)
        gcols = np.einsum("gok,ngop->ngkp", w_r, grad_r)
        gcols = gcols.reshape(n, groups * cg, kh, kw, oh, ow)
        ref = _scatter_windows(gcols, x_pad.shape, kernel, stride, dilation)

        got = _conv_dx(grad, weight, x_pad.shape, stride, dilation, groups)
        np.testing.assert_allclose(np.asarray(got), ref, rtol=1e-12, atol=1e-12)

    def test_conv_dx_buffer_reuse_is_stable(
        self, kernel, stride, padding, dilation, groups
    ):
        """The stale-zero hazard: ``_conv_dx`` writes only the strided
        taps of its zero-stuffed gradient, so a different geometry run
        through the shared workspace in between must not leave values
        where this one expects zeros."""
        _, x_pad, weight, grad, _ = self._setup(
            kernel, stride, padding, dilation, groups
        )
        bufs: dict = {}
        first = np.array(
            _conv_dx(grad, weight, x_pad.shape, stride, dilation, groups, bufs=bufs)
        )
        # A different (kernel, stride, dilation) pattern and different
        # data through the same workspace ...
        here = GRID.index((kernel, stride, padding, dilation, groups))
        other = GRID[(here + 1) % len(GRID)]
        _, x_pad2, weight2, grad2, _ = self._setup(*other, seed=1)
        _conv_dx(grad2, weight2, x_pad2.shape, other[1], other[3], other[4])
        # ... then the original call again, into the same result buffers,
        # must reproduce call one bit for bit.
        again = np.asarray(
            _conv_dx(grad, weight, x_pad.shape, stride, dilation, groups, bufs=bufs)
        )
        np.testing.assert_array_equal(first, again)

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
            transform=member.loader.transform, device=member.device,
        )

    return run


def _closure_arrays(fn):
    """name -> ndarrays ``fn``'s closure cells hold, directly or in a
    container (tensors are graph nodes of their own; only the padded
    input's array counts here)."""
    found = {}

    def visit(name, obj):
        if isinstance(obj, Tensor) and name == "x_pad":
            obj = obj.data
        if isinstance(obj, np.ndarray):
            found.setdefault(name, []).append(obj)
        elif isinstance(obj, (dict, list, tuple)):
            for item in obj.values() if isinstance(obj, dict) else obj:
                visit(name, item)

    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            visit(name, cell.cell_contents)
        except ValueError:  # a nonlocal not bound yet
            pass
    return found


def _owner_nbytes(array):
    return (array.base if isinstance(array.base, np.ndarray) else array).nbytes


class TestDefaultConfigStepMemory:
    def test_first_sighting_peak_and_retained_estimate(self, default_step):
        """Fails at the parent of PR 17 (traced peak 235 MiB): backward's
        stuffed/im2col scratch was parked in every conv closure."""
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
        assert tape.stats().snapshot() == {
            "first_sightings": 1, "captures": 1, "replays": 0, "fallbacks": 0,
        }
        assert peak <= 160 * 2**20, f"first-sighting peak {peak / 2**20:.1f} MiB"
        estimate = _only_model().retained_bytes
        assert retained / 2 <= estimate <= retained * 2

    def test_no_closure_retains_scratch(self, default_step, monkeypatch):
        """No conv/pool backward closure of a retained graph holds an
        array larger than its own padded input — bar the forward
        windows a conv keeps for dW — and nothing a closure holds, or
        ``_accumulate`` is handed, is a view of the workspace."""
        accumulate = Tensor._accumulate
        workspace = vars(nn.functional._WORKSPACE)

        def in_workspace(array):
            return any(np.may_share_memory(array, buf) for buf, _ in workspace.values())

        def checked(self, grad):
            assert not in_workspace(grad)
            accumulate(self, grad)

        monkeypatch.setattr(Tensor, "_accumulate", checked)
        compiled.reset_cache()
        default_step()
        default_step()
        ((step, _, _),) = _only_model().steps.values()
        assert set(workspace) == {"stuffed", "cols", "gflat"}
        seen = set()
        for node in step._nodes:
            op = getattr(node._backward, "__qualname__", "").split(".")[0]
            if op not in ("conv2d", "max_pool2d", "avg_pool2d"):
                continue
            seen.add(op)
            held = _closure_arrays(node._backward)
            limit = max(_owner_nbytes(a) for a in held["x_pad"])
            for name, arrays in held.items():
                for array in arrays:
                    assert not in_workspace(array), (op, name)
                    if name != "cols_r":
                        assert _owner_nbytes(array) <= limit, (op, name, array.shape)
        assert seen == {"conv2d", "max_pool2d", "avg_pool2d"}


# ----------------------------------------------------------------------
# Satellite 3: tape replay parity over sampled controller masks
# ----------------------------------------------------------------------


def _make_tasks(num_masks=5, repeats=3, batch_seed0=500):
    """Tasks cycling over ``num_masks`` seeded masks, each seen
    ``repeats`` times — first visit drops its graph, the second retains
    it, later visits replay."""
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


def _run_all(tasks, dataset, step=run_local_step, compute_dtype="float64", fusion=False):
    tape.configure(compute_dtype=compute_dtype, fusion=fusion)
    compiled.reset_cache()
    tape.reset_stats()
    return [step(t, dataset, 8, TINY) for t in tasks]


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
    (cm,) = compiled._MODELS.values()
    return cm


@pytest.fixture(scope="module")
def tiny_dataset():
    train, _ = synth_cifar10(
        seed=1, train_per_class=10, test_per_class=2, image_size=8
    )
    return train


class TestTapeParity:
    def test_float64_replay_bit_identical_to_eager(self, tiny_dataset):
        tasks = _make_tasks()
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        taped = _run_all(tasks, tiny_dataset)
        assert tape.stats().snapshot() == {
            "first_sightings": 5,
            "captures": 5,
            "replays": 5,
            "fallbacks": 0,
        }
        for ref, got in zip(eager, taped):
            _assert_bit_equal(ref, got)

    @pytest.mark.parametrize(
        "mode_kwargs,rtol,atol",
        [
            (dict(compute_dtype="float32"), 1e-4, 1e-6),
            (dict(fusion=True), 1e-9, 1e-12),
        ],
        ids=["float32", "fusion"],
    )
    def test_lossy_modes_tolerance_equal(self, tiny_dataset, mode_kwargs, rtol, atol):
        tasks = _make_tasks()
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        got_all = _run_all(tasks, tiny_dataset, **mode_kwargs)
        assert tape.stats().replays == 5
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

    def test_shape_change_forces_recapture(self, tiny_dataset):
        tasks = _make_tasks(num_masks=1, repeats=3)
        _run_all(tasks, tiny_dataset)
        assert tape.stats().snapshot() == {
            "first_sightings": 1,
            "captures": 1,
            "replays": 1,
            "fallbacks": 0,
        }
        # Same mask, different batch size -> different input shape -> a
        # separate key that starts at its own first sighting, never a
        # stale replay.
        for sighting in ("first_sightings", "captures", "replays"):
            small = run_local_step(tasks[0], tiny_dataset, 4, TINY)
            assert getattr(tape.stats(), sighting) == 2
            assert small.num_samples == 4
            _assert_bit_equal(_run_eager_step(tasks[0], tiny_dataset, 4, TINY), small)

    def test_always_on_with_float64_default(self):
        assert tape.enabled()
        assert tape.settings() == ("float64", False)
        with pytest.raises(TypeError):
            tape.configure(enabled=False)


# ----------------------------------------------------------------------
# Admission on the second sighting; byte-bounded retention
# ----------------------------------------------------------------------


class TestAdmission:
    def test_sightings_one_two_three(self, tiny_dataset):
        tasks = _make_tasks(num_masks=1, repeats=3)
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        tape.reset_stats()
        expected = [
            dict(first_sightings=1, captures=0, replays=0, graphs=0),
            dict(first_sightings=1, captures=1, replays=0, graphs=1),
            dict(first_sightings=1, captures=1, replays=1, graphs=1),
        ]
        for task, ref, want in zip(tasks, eager, expected):
            _assert_bit_equal(ref, run_local_step(task, tiny_dataset, 8, TINY))
            cm = _only_model()
            graphs = want.pop("graphs")
            assert tape.stats().snapshot() == dict(want, fallbacks=0)
            assert len(cm.steps) == graphs
            assert (cm.retained_bytes > 0) == bool(graphs)

    def test_byte_estimate_tracks_what_retention_allocates(self, tiny_dataset):
        first, second = _make_tasks(num_masks=1, repeats=2)
        run_local_step(first, tiny_dataset, 8, TINY)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_local_step(second, tiny_dataset, 8, TINY)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        estimate = _only_model().retained_bytes
        assert retained / 2 <= estimate <= retained * 2

    def test_eviction_holds_the_budget_and_readmits(self, tiny_dataset, monkeypatch):
        tasks = _make_tasks(num_masks=3, repeats=2)
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        tape.reset_stats()
        run_local_step(tasks[0], tiny_dataset, 8, TINY)
        run_local_step(tasks[3], tiny_dataset, 8, TINY)
        cm = _only_model()
        one_graph = cm.retained_bytes
        # Room for two graphs of this size, not three.
        monkeypatch.setattr(compiled, "_MAX_RETAINED_BYTES", int(2.5 * one_graph))
        for task in tasks[1:3] + tasks[4:6]:
            run_local_step(task, tiny_dataset, 8, TINY)
        assert len(cm.steps) == 2
        assert cm.retained_bytes <= compiled._MAX_RETAINED_BYTES
        assert cm.retained_bytes == sum(nbytes for _, nbytes, _ in cm.steps.values())
        evicted_key = (
            (tasks[0].mask.normal, tasks[0].mask.reduce), (8, 3, 8, 8), False
        )
        assert evicted_key not in cm.steps and evicted_key not in cm.seen
        # The evicted key starts over: dropped, then retained, then
        # replayed — each bit-equal to the oracle.
        for sighting in ("first_sightings", "captures", "replays"):
            count = getattr(tape.stats(), sighting)
            _assert_bit_equal(eager[0], run_local_step(tasks[0], tiny_dataset, 8, TINY))
            assert getattr(tape.stats(), sighting) == count + 1
        assert cm.retained_bytes <= compiled._MAX_RETAINED_BYTES

    def test_newest_graph_is_kept_even_over_budget(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(compiled, "_MAX_RETAINED_BYTES", 1)
        tasks = _make_tasks(num_masks=2, repeats=3)
        _run_all(tasks, tiny_dataset)
        assert len(_only_model().steps) == 1
        # A B | A+ B+(evicts A) | A(starts over) B(replays)
        assert tape.stats().snapshot() == {
            "first_sightings": 3,
            "captures": 2,
            "replays": 1,
            "fallbacks": 0,
        }

    def test_5000_distinct_keys_leave_bounded_bookkeeping(self):
        """A live policy adds one key per task forever; nothing may grow
        with it.  (Synthetic keys: 5000 real captures would take minutes.)"""
        cm = compiled._CompiledModel(TINY, np.dtype("float64"))
        for i in range(5000):
            cm.remember((("mask", i), (8, 3, 8, 8), False), i % 7 != 0)
        assert len(cm.seen) == compiled._MAX_KEYS < 5000
        assert len(cm.steps) == 0 and cm.retained_bytes == 0
        assert not hasattr(cm, "mask_params") and not hasattr(cm, "uncapturable")

    def test_uncapturable_key_is_remembered_and_runs_eagerly(
        self, tiny_dataset, monkeypatch
    ):
        @contextlib.contextmanager
        def refuse(entries):
            raise tape.TapeUnsupported("refused")
            yield

        tasks = _make_tasks(num_masks=1, repeats=2)
        eager = _run_all(tasks, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        tape.reset_stats()
        monkeypatch.setattr(tape, "capturing", refuse)
        for ref, task in zip(eager, tasks):
            _assert_bit_equal(ref, run_local_step(task, tiny_dataset, 8, TINY))
        cm = _only_model()
        assert list(cm.seen.values()) == [False] and not cm.steps
        assert tape.stats().snapshot() == {
            "first_sightings": 0,
            "captures": 0,
            "replays": 0,
            "fallbacks": 2,
        }

    def test_concurrent_threads_share_one_engine_safely(self, tiny_dataset):
        """In-process worker daemons serve tasks from threads; the shared
        model and the capture tape are process-global, so steps must not
        interleave.  Four threads on two cores, 1e-5 s switch interval:
        unguarded, updates lose gradient names within a few steps."""
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

    def test_eager_fallback_does_not_leak_into_another_threads_capture(
        self, tiny_dataset, monkeypatch
    ):
        """The capture tape is process-global: an uncapturable key's eager
        step on one thread must not run while another thread captures, or
        its ops land on that tape and its own loss raises
        ``TapeUnsupported``.  One thread of first sightings (every step
        under capture), one of fallbacks, 1e-5 s switch interval."""
        @contextlib.contextmanager
        def refuse(entries):
            raise tape.TapeUnsupported("refused")
            yield

        fallback, *captured = _make_tasks(num_masks=13, repeats=1)
        eager = _run_all([fallback] + captured, tiny_dataset, step=_run_eager_step)
        compiled.reset_cache()
        tape.reset_stats()
        with monkeypatch.context() as patch:
            patch.setattr(tape, "capturing", refuse)
            run_local_step(fallback, tiny_dataset, 8, TINY)  # remembered
        jobs = [[fallback] * len(captured), captured]
        got = [[], []]

        def work(k):
            for task in jobs[k]:
                got[k].append(run_local_step(task, tiny_dataset, 8, TINY))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        _race(threads)
        assert tape.stats().snapshot() == {
            "first_sightings": 12, "captures": 0, "replays": 0, "fallbacks": 13,
        }
        assert len(got[0]) == len(got[1]) == 12
        for update in got[0]:
            _assert_bit_equal(eager[0], update)
        for ref, update in zip(eager[1:], got[1]):
            _assert_bit_equal(ref, update)

    def test_live_policy_default_config_retains_nothing(self):
        from repro import ExperimentConfig, FederatedModelSearch

        compiled.reset_cache()
        tape.reset_stats()
        pipeline = FederatedModelSearch(ExperimentConfig(seed=0, backend="serial"))
        try:
            for _ in range(3):
                pipeline.server.run_round()
        finally:
            pipeline.close()
        cm = _only_model()
        assert len(cm.steps) == 0 and cm.retained_bytes == 0
        assert tape.stats().snapshot() == {
            "first_sightings": 30,
            "captures": 0,
            "replays": 0,
            "fallbacks": 0,
        }
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

        # Fresh process stand-in: compiled models and tapes are gone.
        compiled.reset_cache()
        tape.reset_stats()
        second = _make_server()
        try:
            restore_search_state(second, path)
            second.run(2)
        finally:
            second.backend.close()

        # The resumed half started from first sightings again (caches
        # were never serialized) yet the trajectory is bit-identical.
        assert tape.stats().first_sightings > 0
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
        assert sum(tape.stats().snapshot().values()) == 12

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
        import pickle

        from repro.transport import codec

        payload = codec.encode_init([], TINY, tape_settings=("float32", True))
        assert codec.decode_init(payload)[3] == ("float32", True)
        # a server from before the keys existed
        old = pickle.dumps({"specs": [], "supernet_config": TINY})
        assert codec.decode_init(old)[3] == ("float64", False)
        with pytest.raises(codec.ProtocolError):
            codec.decode_init(codec.encode_init([], TINY, tape_settings=("float16", False)))

    def test_process_worker_applies_initargs(self):
        from repro.federated import executor

        try:
            executor._init_worker([], TINY, None, None, ("float32", True))
            assert tape.settings() == ("float32", True)
        finally:
            executor._WORKER_STATE.clear()

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
            tape.configure(compute_dtype="float32")
            backend = SocketBackend(participants, TINY, workers=[f"{host}:{port}"])
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
