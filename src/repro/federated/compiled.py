"""Compiled local steps: one shared model per process, stacked by group.

Every :func:`~repro.federated.participant.run_local_step` and
:func:`~repro.federated.participant.run_local_group` runs here.
Rebuilding a sub-model (module tree + parameter copies) for every step
is pure overhead, and so is running one step per task when several
tasks train the same sub-model, so:

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
  member count is fixed when the graph is built
  (:func:`repro.nn.tape.members`) and baked into the closures of the ops
  that reduce over the batch: the one-node train-mode batch norm (its
  statistics, and its running-statistic updates, which land in one row
  per member instead of the shared buffer), conv dW and db, the
  classifier's matmul, dW and db, and the cross-entropy's 1/B.  Every
  other op is per sample already (``_conv_forward`` runs one GEMM per
  (sample, group)).  Parameter gradients get a leading member axis and
  :func:`_pack` slices it, so every member's :class:`ParticipantUpdate`
  is bit for bit the one its lone step returns.  ``tape.stats()``
  counts one step per member.  A group that cannot stack (affine batch
  norm raises :class:`~repro.nn.tape.TapeUnsupported`) runs its members
  one at a time.
* **Every step is eager and keeps nothing.**  Each step builds its
  autograd graph, walks it once and drops it: each backward closure
  keeps only the arrays it reads (a conv's padded input, a batch norm's
  centred input and std, a relu's mask, a pool's winning taps), every
  other value dies as the forward drops it, and backward releases each
  node as it walks.  A default-config step peaks at 14-23 MiB traced.
  Under a live policy a mask almost never repeats, so a graph retained
  for replay would rarely be used again; the capture/replay engine this
  replaced cost 22-38 % more per admitted step than an eager one, saved
  4-9 % per replay, and held every activation of each retained graph.

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
moved while the retained graph grew with the group; at 8 a cohort of
100 split into chunks of 8 and 7, two keys, two retained graphs.  The
sweep predates the removal of retained graphs, so its memory column no
longer describes this engine.

Equality contract: in float64 (the default) every step, alone or
grouped, returns, per member, a :class:`ParticipantUpdate`
**bit-identical** to the eager oracle's.
Float32 mode (opt-in) trades that for speed and is tolerance-verified.
Everything here is *derived state*: per worker process, never
serialized or checkpointed, rebuilt on first use after a resume or a
worker restart.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.data import DataLoader
from repro.evaluation import batch_accuracy
from repro.nn import tape
from repro.nn.tape import TapeUnsupported
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry.tracing import SpanRecorder, null_span

from .participant import LocalStepTask, ParticipantSpec, ParticipantUpdate

__all__ = ["run_compiled_group", "group_chunks", "reset_cache"]

#: Most members one grouped step stacks; set by the sweep in the module
#: docstring.
_MAX_GROUP = 4


class _CompiledModel:
    """Per-process reusable supernet."""

    __slots__ = ("model", "arena", "named", "named_buffers", "targets")

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


_MODELS: Dict[Tuple, _CompiledModel] = {}

#: One step at a time per process: the shared model and the member
#: stacking state (``repro.nn.tensor._MEMBERS``) are process-global, and
#: in-process worker daemons (tests, examples) serve tasks from threads.
#: Held by :func:`~repro.federated.participant.run_local_group` around
#: the compiled step.
_STEP_LOCK = threading.Lock()


def reset_cache() -> None:
    """Drop every per-process compiled model (tests)."""
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

    Returns ``None`` when the group cannot run as one step (its batch
    shapes differ, or its model cannot stack members) — the caller
    (:func:`~repro.federated.participant.run_local_group`, which holds
    :data:`_STEP_LOCK` around this call) then runs the tasks one at a
    time.  A lone task always runs.
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
    try:
        with tape.members(members) as buffer_rows:
            with span("forward"):
                try:
                    logits = cm.model(nn.Tensor(x_arr), tasks[0].mask)
                except TapeUnsupported:
                    return None
                loss = nn.functional.cross_entropy(logits, y, members)
            with span("backward"):
                loss.backward()
        with span("pack"):
            updates = _pack(cm, tasks, specs, buffer_rows, logits, y)
    finally:
        for _, param in cm.named:
            param.grad = None
    tape.stats().steps += members
    return updates


def _pack(cm, tasks, specs, buffer_rows, logits, y):
    """One update per member: float64 copies of its row of the step's
    gradients and buffer updates, and the reward of its rows of logits."""
    members, state = len(tasks), tasks[0].state
    rows = len(y) // members
    # Drives the simulated compute time; must match
    # ``submodel.num_parameters()``.
    num_params = sum(p.data.size for name, p in cm.named if name in state)
    updates = []
    for member, (task, spec) in enumerate(zip(tasks, specs)):
        gradients: Dict[str, np.ndarray] = {}
        for name, param in cm.named:
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
                compute_time_s=spec.device.train_time(num_params, rows),
                buffers=buffers,
            )
        )
    return updates
