"""Compiled local steps: one reusable model per thread, stacked by group.

Every :func:`~repro.federated.participant.run_local_step` and
:func:`~repro.federated.participant.run_local_group` runs here.
Rebuilding a sub-model (module tree + parameter copies) for every step
is pure overhead, and so is running one step per task when several
tasks train the same sub-model, so:

* **One model per thread.**  A single full :class:`Supernet` is built
  once per supernet config (which carries the compute dtype) in each
  thread that steps, and reused for every task there;
  ``apply_state(task.state)`` writes the shipped weights in place.  A
  worker serves on one thread, so it holds one model, and steps on two
  threads share nothing, so no lock serialises them.  Masked
  full-supernet execution runs exactly the chosen operation per edge
  (:meth:`MixedEdge.forward` dispatches by global op index), so it
  computes the same floats as the pruned sub-model would.  In float64
  mode the model is backed by a flat :class:`~repro.nn.ParameterArena`,
  so parameter gradient buffers alias contiguous windows of one array.
* **One step per group.**  Tasks whose mask and batch shape match and
  whose ``state`` arrays are the *same objects* (within a round,
  same-mask tasks share the supernet's live views, see
  :meth:`Supernet.submodel_state`) run as one step: the state is applied
  once and the members' batches are stacked along the batch axis.  The
  serial backend forms the groups (:meth:`SerialBackend._groups`) in
  balanced chunks whose stacked input fits :data:`_GROUP_INPUT_BYTES`
  (:func:`group_chunks`);
  a task that carries a trace context or meets a fault hook runs alone,
  and the worker backends send one task per message, so they run groups
  of one.  A single task is the one-member case, not a second engine.
* **Only batch reductions change, and they reduce per member.**  The
  stacked input carries the member count
  (:class:`~repro.nn.tensor.MemberGroup`), every op's output inherits
  it, and the ops that reduce over the batch bake it into their
  closures: the one-node train-mode batch norm (its statistics, and its
  running-statistic updates, which land in one row per member in the
  group's ``buffer_rows`` instead of the shared buffer), conv dW and
  db, the classifier's matmul, dW and db, and the cross-entropy's 1/B.
  Every other op is per sample already (``_conv_forward`` runs one GEMM
  per (sample, group)).  Parameter gradients get a leading member axis and
  :func:`_pack` slices it, so every member's :class:`ParticipantUpdate`
  is bit for bit the one its lone step returns.  ``tape.stats()``
  counts one step per member.  A group of an affine supernet cannot
  stack (its batch norms' γ/β gradients would sum over members), so it
  runs its members one at a time.
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

**The budget.**  A group stacks as many members as fit
:data:`_GROUP_INPUT_BYTES` = 96 KiB of stacked input, members × batch ×
C × H × W × itemsize (:func:`group_capacity`); a member larger than the
budget runs alone.  The budget reads only what a task carries, so it
sizes groups by geometry, where a count cap was wrong both ways.  It
comes from a sweep of ms per task inside ``SerialBackend.run_tasks`` and
the process's max RSS, one process per cell, one converged mask, two
runs each (1 BLAS thread, 2-core x86-64 host):

=======  ==================  ===========  ==================  ===========
members  8x8 cohort ms/task  8x8 max RSS  16x16 default ms    16x16 RSS
=======  ==================  ===========  ==================  ===========
1        4.26, 4.24          42.9 MB      35.1, 36.6          67.1 MB
2        3.28, 3.06          44.2 MB      70.8, 44.3          82.7 MB
4        2.59, 2.40          46.5 MB      39.1, 42.4          114.1 MB
**8**    2.16, 2.30          50.4 MB      41.7, 40.4          176.9 MB
16       1.88, 1.76          57.3 MB
=======  ==================  ===========  ==================  ===========

The 8x8 cohort geometry is the ledger's ``cohort-converged`` (batch 8,
4 initial channels, 2 cells of 1 step, 32 tasks a round; 12 KiB of
input per member); the default geometry is ``ExperimentConfig()``
(16x16, 6 initial channels, 3 cells of 2 steps, batch 16, 16 tasks;
96 KiB per member).  At 8x8 the time per member falls to 8 and little
past it, while RSS keeps growing; at 16x16 no group beats a lone step
and every member adds 15 MB.  96 KiB gives 8 members at the first and 1
at the second.

Equality contract: in float64 (the default) every step, alone or
grouped, returns, per member, a :class:`ParticipantUpdate`
**bit-identical** to the eager oracle's.  Float32
(``SupernetConfig.compute_dtype``, opt-in) trades that for speed and is
tolerance-verified.  Everything here is *derived state*: per thread,
never serialized or checkpointed, rebuilt on first use after a resume or
a worker restart.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.data import DataLoader
from repro.evaluation import batch_accuracy
from repro.nn import tape
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry.tracing import SpanRecorder, null_span

from .participant import LocalStepTask, ParticipantSpec, ParticipantUpdate

__all__ = ["run_compiled_group", "group_capacity", "group_chunks", "reset_cache"]

#: Most bytes of stacked input one grouped step holds; set by the sweep
#: in the module docstring.
_GROUP_INPUT_BYTES = 96 * 1024


class _CompiledModel:
    """Per-thread reusable supernet, computing in ``config.compute_dtype``."""

    __slots__ = ("model", "arena", "named", "named_buffers", "targets")

    def __init__(self, config: SupernetConfig):
        dtype = np.dtype(config.compute_dtype)
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


#: This thread's compiled models, ``vars(_MODELS)``: supernet config ->
#: :class:`_CompiledModel`.
_MODELS = threading.local()


def reset_cache() -> None:
    """Drop this thread's compiled models (tests; a worker's MSG_INIT)."""
    vars(_MODELS).clear()


def _model_for(config: SupernetConfig) -> _CompiledModel:
    models = vars(_MODELS)
    cached = models.get(config)
    if cached is None:
        cached = models[config] = _CompiledModel(config)
    return cached


def group_capacity(member_bytes: int) -> int:
    """Most members of ``member_bytes`` of input each (batch × C × H × W
    × itemsize) one step stacks: as many as fit
    :data:`_GROUP_INPUT_BYTES`, and at least one."""
    return max(1, _GROUP_INPUT_BYTES // max(member_bytes, 1))


def group_chunks(indices: Sequence[int], member_bytes: int) -> List[List[int]]:
    """One group's task indices as the fewest chunks of at most
    :func:`group_capacity` members, in order, whose sizes differ by at
    most one."""
    count = -(-len(indices) // group_capacity(member_bytes))
    return [chunk.tolist() for chunk in np.array_split(np.asarray(indices), count)]


def _stacked_batches(tasks, specs, dtype: str):
    """Every member's mini-batch (drawn from its task's seed), stacked
    along the batch axis; ``None`` if their shapes differ."""
    batches = [
        DataLoader(
            spec.dataset,
            batch_size=min(spec.batch_size, len(spec.dataset)),
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
    shapes differ, or its supernet is affine) — the caller
    (:func:`~repro.federated.participant.run_local_group`) then runs the
    tasks one at a time.  A lone task always runs.
    """
    members, state = len(tasks), tasks[0].state
    if members > 1 and supernet_config.affine:
        return None
    span = recorder.span if recorder is not None else null_span
    cm = _model_for(supernet_config)
    with span("build"):
        # ``cm.model.apply_state(state)`` without the per-step module-tree
        # walk: every target array is stable and written in place.
        for name, value in state.items():
            cm.targets[name][...] = value
        stacked = _stacked_batches(tasks, specs, supernet_config.compute_dtype)
    if stacked is None:
        return None
    x_arr, y = stacked
    group = nn.MemberGroup(members)
    try:
        with span("forward"):
            logits = cm.model(nn.Tensor(x_arr, group=group), tasks[0].mask)
            loss = nn.functional.cross_entropy(logits, y)
        with span("backward"):
            loss.backward()
        with span("pack"):
            updates = _pack(cm, tasks, specs, group.buffer_rows, logits, y)
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
