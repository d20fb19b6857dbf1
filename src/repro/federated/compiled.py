"""Compiled local steps: per-mask tape capture & replay, stacked by group.

Every :func:`~repro.federated.participant.run_local_step` and
:func:`~repro.federated.participant.run_local_group` runs here.
Rebuilding a sub-model (module tree + parameter copies) and re-deriving
the autograd graph node by node are pure overhead — the computation for
a given (mask, input shape, dtype) is identical every time — so:

* **One model per process.**  A single full :class:`Supernet` is built
  once per (supernet config, compute dtype) and reused for every task;
  ``apply_state(task.state)`` writes the shipped weights in place.
  Masked full-supernet execution runs exactly the chosen operation per
  edge (:meth:`MixedEdge.forward` dispatches by global op index), so it
  computes the same floats as the pruned sub-model would.  In float64
  mode the model is backed by a flat :class:`~repro.nn.ParameterArena`,
  so parameter gradient buffers alias contiguous windows of one array.
* **One step per group.**  Tasks whose mask and batch shape match and
  whose ``state`` arrays are the *same objects* (within a round,
  same-mask tasks share the supernet's live views, see
  :meth:`Supernet.submodel_state`) run as one step: the state is applied
  once and the members' batches are stacked along the batch axis.  The
  serial backend forms the groups (:meth:`SerialBackend._groups`) in
  balanced chunks of at most :data:`_MAX_GROUP` (:func:`group_chunks`);
  a task that carries a trace context or meets a fault hook runs alone,
  and the worker backends send one task per message, so they run groups
  of one.  A single task is the one-member case, not a second engine.
* **Only batch reductions change, and they reduce per member.**  The
  member count is fixed when the graph is captured
  (:func:`repro.nn.tape.members`) and baked into the closures of the ops
  that reduce over the batch: the one-node train-mode batch norm (its
  statistics, and its running-statistic updates, which land in one row
  per member instead of the shared buffer), conv dW and db, the
  classifier's matmul, dW and db, and the cross-entropy's 1/B.  Every
  other op is per sample already (``_conv_forward`` runs one GEMM per
  (sample, group)).  Parameter gradients get a leading member axis and
  :func:`_pack` slices it, so every member's :class:`ParticipantUpdate`
  is bit for bit the one its lone step returns.  ``tape.stats()``
  counts one outcome per member.
* **A graph is admitted on the second sighting of its key.**  The key is
  (mask, stacked input shape, member count).  A step whose key has no
  retained graph runs eagerly on the shared model.  The first sighting
  keeps nothing but the key — a live policy almost never repeats a
  mask, and one retained default-config graph is 35-60 MiB (its tape
  keeps every forward value for replay; im2col windows live in the
  thread's workspace, one sub-batch at a time, never in a graph).  It
  runs without :func:`repro.nn.tape.capturing`, so nothing but the
  graph's nodes holds the forward: each backward closure keeps only
  the arrays it reads (a conv's padded input, a batch norm's centred
  input and std, a relu's mask, a pool's winning taps), every other
  value dies as the forward drops it, and backward releases each node
  as it walks.  It builds no :class:`~repro.nn.tape.CompiledStep`; its
  traced peak is 14-23 MiB.  The second sighting records the tape and
  retains the graph as a ``CompiledStep``; later ones replay it with
  zero graph construction.  So a key the tape cannot record is found
  at its second sighting.
* **The cache is bounded by bytes.**  Retained graphs are LRU within
  :data:`_MAX_RETAINED_BYTES` (the newest is always kept); an evicted
  key starts over at its first sighting.  Keys without a graph — seen
  once, or uncapturable (:class:`~repro.nn.tape.TapeUnsupported`, e.g.
  active dropout; those run the eager step) — are FIFO within
  :data:`_MAX_KEYS`.  A group the tape cannot stack (affine batch norm)
  runs its members one at a time.

**The cap.**  :data:`_MAX_GROUP` = 4 comes from a sweep on the ledger's
``cohort-converged`` workload (contract mode, 10 s windows, seeds 211
and 212, one run per cap and seed, a 2-core x86-64 host), against the
commit before grouping:

======  ===============  =====================  ===============
cap     ``round_s_p50``  ``local_steps_per_s``  ``peak_rss_mb``
======  ===============  =====================  ===============
before  0.701, 0.653 s   141, 159               68.4, 68.7
1       0.653, 0.556 s   149, 174               67.2, 68.0
2       0.451, 0.492 s   220, 202               70.1, 69.8
**4**   0.450, 0.486 s   229, 198               74.9, 74.2
5       0.455, 0.458 s   217, 217               77.1, 77.1
8       0.351, 0.412 s   284, 231               99.5, 98.4
======  ===============  =====================  ===============

Cap 1 is the batch-norm node alone.  Past 4 the time per member barely
moves while the retained graph grows with the group; at 8 a cohort of
100 splits into chunks of 8 and 7, two keys, two retained graphs.

Equality contract: in float64 (the default) every step — first
sighting, admission or replay, alone or grouped — returns, per member,
a :class:`ParticipantUpdate` **bit-identical** to the eager oracle's.
Float32 mode (opt-in) trades that for speed and is tolerance-verified.
Everything here is *derived state*: per worker process, never
serialized or checkpointed, rebuilt on first use after a resume or a
worker restart.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.data import DataLoader
from repro.evaluation import batch_accuracy
from repro.nn import tape
from repro.nn.tape import CompiledStep, TapeUnsupported
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry.tracing import SpanRecorder, null_span

from .participant import LocalStepTask, ParticipantSpec, ParticipantUpdate

__all__ = ["run_compiled_group", "group_chunks", "reset_cache"]

#: Bytes one model's retained graphs may hold (nine to fourteen at the
#: default config, 35-60 MiB each).
_MAX_RETAINED_BYTES = 512 * 2**20

#: Most members one grouped step stacks; set by the sweep in the module
#: docstring.
_MAX_GROUP = 4

#: Keys remembered per model without a graph; a live policy adds one a task.
_MAX_KEYS = 4096


class _CompiledModel:
    """Per-process reusable supernet plus its tape caches."""

    __slots__ = (
        "model",
        "arena",
        "named",
        "named_buffers",
        "targets",
        "steps",
        "retained_bytes",
        "seen",
    )

    def __init__(self, config: SupernetConfig, dtype: np.dtype):
        model = Supernet(config, rng=np.random.default_rng(0))
        arena = None
        if dtype == np.float64:
            # Flat arena: parameter data and gradient buffers become
            # views over two contiguous float64 buffers.
            arena = nn.ParameterArena.from_module(model)
        else:
            # The arena is float64-only; float32 mode instead casts the
            # master copies down once (task state re-casts on apply).
            for _, param in model.named_parameters():
                param.data = param.data.astype(dtype)
            for module in model.modules():
                for local in list(module._buffers):
                    module._set_buffer(local, module._buffers[local].astype(dtype))
        self.model = model
        self.arena = arena
        self.named: List[Tuple[str, nn.Parameter]] = list(model.named_parameters())
        #: (name, array) pairs for every buffer, in ``named_buffers``
        #: order.  All writes are in place (``apply_state`` contract, BN
        #: running-stat updates), so the array objects are stable and
        #: the module tree never needs re-walking per step.
        self.named_buffers: List[Tuple[str, np.ndarray]] = [
            (name, module._buffers[local])
            for name, (module, local) in model._named_buffer_owners().items()
        ]
        #: name -> in-place write target for ``task.state`` application.
        self.targets: Dict[str, np.ndarray] = {
            name: param.data for name, param in self.named
        }
        self.targets.update(self.named_buffers)
        # The model is train-mode for its whole life: local steps are
        # the only consumers, and flipping the flag per step would walk
        # the module tree.
        model.train()
        #: key -> (retained graph, its byte estimate, the sub-model's
        #: trainable parameter count), least recently used first.
        self.steps: "OrderedDict[Tuple, Tuple[CompiledStep, int, int]]" = OrderedDict()
        self.retained_bytes = 0
        #: key -> capturable?  True: seen once, the next sighting is
        #: admitted.  False: raised ``TapeUnsupported``, runs eagerly.
        self.seen: "OrderedDict[Tuple, bool]" = OrderedDict()

    def remember(self, key: Tuple, capturable: bool) -> None:
        self.seen[key] = capturable
        while len(self.seen) > _MAX_KEYS:
            self.seen.popitem(last=False)

    def admit(self, key: Tuple, step: CompiledStep, num_params: int) -> int:
        """Retain ``step``; returns how many older graphs that evicted."""
        nbytes = step.retained_bytes()
        self.steps[key] = (step, nbytes, num_params)
        self.retained_bytes += nbytes
        evicted = 0
        while self.retained_bytes > _MAX_RETAINED_BYTES and len(self.steps) > 1:
            _, (_, freed, _) = self.steps.popitem(last=False)
            self.retained_bytes -= freed
            evicted += 1
        return evicted


_MODELS: Dict[Tuple, _CompiledModel] = {}

#: One step at a time per process: the shared model and the capture tape
#: (``repro.nn.tensor._TAPE``) are process-global, and in-process worker
#: daemons (tests, examples) serve tasks from threads.  Held by
#: :func:`~repro.federated.participant.run_local_group` across the compiled
#: step *and* its eager fallback — an eager op run while another thread
#: captures would append its thunks to that thread's tape.
_STEP_LOCK = threading.Lock()


def reset_cache() -> None:
    """Drop every per-process compiled model and tape (tests)."""
    _MODELS.clear()


def _model_for(config: SupernetConfig, dtype: str) -> _CompiledModel:
    cached = _MODELS.get((config, dtype))
    if cached is None:
        cached = _MODELS[config, dtype] = _CompiledModel(config, np.dtype(dtype))
    return cached


def group_chunks(indices: Sequence[int]) -> List[List[int]]:
    """One group's task indices as the fewest chunks of at most
    :data:`_MAX_GROUP`, in order, whose sizes differ by at most one."""
    count = -(-len(indices) // _MAX_GROUP)
    return [chunk.tolist() for chunk in np.array_split(np.asarray(indices), count)]


def _stacked_batches(tasks, specs, dtype: str):
    """Every member's mini-batch (drawn from its task's seed), stacked
    along the batch axis; ``None`` if their shapes differ."""
    batches = [
        DataLoader(
            spec.dataset,
            batch_size=min(spec.batch_size, len(spec.dataset)),
            transform=spec.transform,
            rng=np.random.default_rng(task.batch_seed),
        ).sample_batch()
        for task, spec in zip(tasks, specs)
    ]
    if len({x.shape for x, _ in batches}) > 1:
        return None
    x = np.concatenate([np.asarray(x, dtype=dtype) for x, _ in batches])
    return x, np.concatenate([y for _, y in batches])


def run_compiled_group(
    tasks: Sequence[LocalStepTask],
    specs: Sequence[ParticipantSpec],
    supernet_config: SupernetConfig,
    recorder: Optional[SpanRecorder] = None,
) -> Optional[List[ParticipantUpdate]]:
    """Run tasks that share a mask, a batch shape and the same ``state``
    arrays as one step, their batches stacked; one update per task.

    Returns ``None`` when the group's key is uncapturable — the caller
    (:func:`~repro.federated.participant.run_local_group`, which holds
    :data:`_STEP_LOCK` around this call) then runs a lone task's eager
    step, or a group's tasks one at a time.
    """
    span = recorder.span if recorder is not None else null_span
    dtype = tape.settings()
    cm = _model_for(supernet_config, dtype)
    members, state = len(tasks), tasks[0].state
    with span("build"):
        # ``cm.model.apply_state(state)`` without the per-step module-tree
        # walk: every target array is stable and written in place.
        for name, value in state.items():
            cm.targets[name][...] = value
        stacked = _stacked_batches(tasks, specs, dtype)
    if stacked is None:
        return None
    x_arr, y = stacked
    key = ((tasks[0].mask.normal, tasks[0].mask.reduce), x_arr.shape, members)
    retained = cm.steps.get(key)
    if retained is None and cm.seen.get(key) is False:
        return _uncapturable(recorder, members)
    # The parameters this step may leave a gradient on: a retained graph
    # knows its own; a first sighting builds no graph record, so every
    # named parameter is a candidate.
    leaves = cm.named
    if retained is not None:
        num_params = retained[2]
    else:
        num_params = sum(p.data.size for name, p in cm.named if name in state)
    try:
        with tape.members(members) as buffer_rows:
            if retained is not None:
                step = retained[0]
                leaves = step.param_leaves
                cm.steps.move_to_end(key)
                logits, meta = _replay(step, x_arr, y, members, recorder)
            else:
                captured = _capture(cm, key, x_arr, y, tasks[0].mask, num_params, members, span)
                if captured is None:
                    return _uncapturable(recorder, members)
                logits, leaves, meta = captured
        with span("pack"):
            updates = _pack(cm, leaves, tasks, specs, buffer_rows, logits, y, num_params)
    finally:
        for _, param in leaves:
            param.grad = None
    if recorder is not None:
        meta["retained_graphs"] = len(cm.steps)
        meta["retained_mb"] = round(cm.retained_bytes / 2**20, 1)
        recorder.meta["tape"] = meta
    return updates


def _pack(cm, leaves, tasks, specs, buffer_rows, logits, y, num_params: int):
    """One update per member: float64 copies of its row of the step's
    gradients and buffer updates, and the reward of its rows of logits."""
    members, state = len(tasks), tasks[0].state
    rows = len(y) // members
    updates = []
    for member, (task, spec) in enumerate(zip(tasks, specs)):
        gradients: Dict[str, np.ndarray] = {}
        for name, param in leaves:
            if name in state and param.grad is not None:
                grad = param.grad if members == 1 else param.grad[member]
                gradients[name] = np.array(grad, dtype=np.float64)
        buffers: Dict[str, np.ndarray] = {}
        for name, value in cm.named_buffers:
            if name in state:
                updated = buffer_rows.get(id(value))
                value = value if updated is None else updated[member]
                buffers[name] = np.array(value, dtype=np.float64, copy=True)
        sl = slice(member * rows, (member + 1) * rows)
        updates.append(
            ParticipantUpdate(
                participant_id=task.participant_id,
                gradients=gradients,
                reward=batch_accuracy(nn.Tensor(logits.data[sl]), y[sl]),
                num_samples=rows,
                # Drives the simulated compute time; ``num_params`` must
                # match ``submodel.num_parameters()``.
                compute_time_s=spec.device.train_time(num_params, rows),
                buffers=buffers,
            )
        )
    return updates


def _uncapturable(recorder: Optional[SpanRecorder], members: int) -> None:
    """A lone task falls back to eager (counted here); a group's members
    run one at a time and count themselves."""
    if members == 1:
        tape.stats().fallbacks += 1
        if recorder is not None:
            recorder.meta["tape"] = {"outcome": "fallback"}
    return None


def _replay(step: CompiledStep, x_arr, y, members: int, recorder) -> Tuple[nn.Tensor, Dict]:
    span = recorder.span if recorder is not None else null_span
    profile = None
    if recorder is not None and recorder.profiler is not None:
        profile = recorder.profiler.stats
    with span("forward"):
        logits = step.replay_forward(x_arr, profile=profile)
        loss = nn.functional.cross_entropy(logits, y, members)
    with span("backward"):
        step.replay_backward(loss)
    tape.stats().replays += members
    return logits, {"outcome": "replayed"}


def _capture(cm: _CompiledModel, key: Tuple, x_arr, y, mask, num_params: int, members: int, span):
    """Run the step eagerly: a first sighting records no tape and keeps
    only the key, a second one records the tape and admits the graph.
    The capture step's own update is already bit-identical to eager —
    the tape only observes.  Returns ``(logits, leaves, meta)``, or
    ``None`` if uncapturable."""
    stats = tape.stats()
    x_t = nn.Tensor(x_arr)
    entries: List = []
    # A first sighting's graph is never replayed: without a tape, whose
    # thunks would hold every value, its forward values die as the
    # forward drops them and backward releases each node as it walks.
    admit = cm.seen.get(key, False)
    with span("forward"):
        try:
            with tape.capturing(entries) if admit else contextlib.nullcontext():
                logits = cm.model(x_t, mask)
        except TapeUnsupported:
            cm.remember(key, False)
            return None
        loss = nn.functional.cross_entropy(logits, y, members)
    if not admit:
        with span("backward"):
            loss.backward()
        cm.remember(key, True)
        stats.first_sightings += members
        return logits, cm.named, {"outcome": "first_sighting"}
    del cm.seen[key]
    step = CompiledStep(
        x_t,
        logits,
        entries,
        named_params=cm.named,
        grad_view=cm.arena.grad_view if cm.arena is not None else None,
        members=members,
    )
    with span("backward"):
        loss.backward(retain_graph=True)
    evicted = cm.admit(key, step, num_params)
    stats.captures += members
    return logits, step.param_leaves, {"outcome": "admitted", "evicted": evicted}
