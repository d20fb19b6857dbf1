"""Compiled local steps: per-mask tape capture & replay for workers.

Every :func:`~repro.federated.participant.run_local_step` runs here.
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
* **A graph is admitted on the second sighting of its key.**  A step
  whose (mask, input shape) key has no retained graph runs on
  the shared model under :func:`repro.nn.tape.capturing`.  The first
  sighting keeps nothing but the key — a live policy almost never
  repeats a mask, and one default-config graph is 55-75 MiB
  (activations and each conv's padded input; im2col windows live in the
  thread's workspace, one sub-batch at a time, never in a graph).  It
  builds no :class:`~repro.nn.tape.CompiledStep`, drops its tape
  entries before backward, and backward releases each node as it walks,
  so its peak is 25-40 MiB, not the graph.  The second sighting retains
  the graph as a ``CompiledStep``; later ones replay it with zero graph
  construction.
* **The cache is bounded by bytes.**  Retained graphs are LRU within
  :data:`_MAX_RETAINED_BYTES` (the newest is always kept); an evicted
  key starts over at its first sighting.  Keys without a graph — seen
  once, or uncapturable (:class:`~repro.nn.tape.TapeUnsupported`, e.g.
  active dropout; those run the eager step) — are FIFO within
  :data:`_MAX_KEYS`.

Equality contract: in float64 (the default) every step — first
sighting, admission or replay — returns a :class:`ParticipantUpdate`
**bit-identical** to the eager oracle's.  Float32 mode (opt-in) trades
that for speed and is tolerance-verified.  Everything here is *derived
state*: per worker process, never serialized or checkpointed, rebuilt
on first use after a resume or a worker restart.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.nn as nn
from repro.data import ArrayDataset, Compose, DataLoader
from repro.evaluation import batch_accuracy
from repro.nn import tape
from repro.nn.tape import CompiledStep, TapeUnsupported
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry.tracing import SpanRecorder, null_span

from .participant import (
    GTX_1080TI,
    DeviceProfile,
    LocalStepTask,
    ParticipantUpdate,
)

__all__ = ["run_compiled_step", "reset_cache"]

#: Bytes one model's retained graphs may hold (seven to nine at the
#: default config, 55-75 MiB each).
_MAX_RETAINED_BYTES = 512 * 2**20

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
#: :func:`~repro.federated.participant.run_local_step` across the compiled
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


def run_compiled_step(
    task: LocalStepTask,
    dataset: ArrayDataset,
    batch_size: int,
    supernet_config: SupernetConfig,
    transform: Optional[Compose] = None,
    device: DeviceProfile = GTX_1080TI,
    recorder: Optional[SpanRecorder] = None,
) -> Optional[ParticipantUpdate]:
    """Run one :class:`LocalStepTask` through the compiled engine.

    Returns ``None`` when the step's key is uncapturable — the caller
    (:func:`~repro.federated.participant.run_local_step`, which holds
    :data:`_STEP_LOCK` around this call) then runs the eager step, which
    is always correct.
    """
    span = recorder.span if recorder is not None else null_span
    dtype = tape.settings()
    stats = tape.stats()
    cm = _model_for(supernet_config, dtype)

    with span("build"):
        # Equivalent to ``cm.model.apply_state(task.state)`` without the
        # per-step module-tree walk: every target array is stable and
        # written in place.
        targets = cm.targets
        state = task.state
        for name, value in state.items():
            targets[name][...] = value
        loader = DataLoader(
            dataset,
            batch_size=min(batch_size, len(dataset)),
            transform=transform,
            rng=np.random.default_rng(task.batch_seed),
        )
        x, y = loader.sample_batch()

    x_arr = np.asarray(x, dtype=dtype)
    key = ((task.mask.normal, task.mask.reduce), x_arr.shape)
    retained = cm.steps.get(key)
    if retained is None and cm.seen.get(key) is False:
        stats.fallbacks += 1
        if recorder is not None:
            recorder.meta["tape"] = {"outcome": "fallback"}
        return None

    # The parameters this step may leave a gradient on: a retained graph
    # knows its own; a first sighting builds no graph record, so every
    # named parameter is a candidate.
    leaves = cm.named
    try:
        if retained is not None:
            step, _, num_params = retained
            leaves = step.param_leaves
            cm.steps.move_to_end(key)
            profile = None
            if recorder is not None and recorder.profiler is not None:
                profile = recorder.profiler.stats
            with span("forward"):
                logits = step.replay_forward(x_arr, profile=profile)
                loss = nn.functional.cross_entropy(logits, y)
            with span("backward"):
                step.replay_backward(loss)
            stats.replays += 1
            meta = {"outcome": "replayed"}
        else:
            # Capture: run eagerly with recording on.  The capture step's
            # own update is already bit-identical to eager — the tape only
            # observes.
            x_t = nn.Tensor(x_arr)
            entries: List = []
            with span("forward"):
                try:
                    with tape.capturing(entries):
                        logits = cm.model(x_t, task.mask)
                except TapeUnsupported:
                    cm.remember(key, False)
                    stats.fallbacks += 1
                    if recorder is not None:
                        recorder.meta["tape"] = {"outcome": "fallback"}
                    return None
                loss = nn.functional.cross_entropy(logits, y)
            # Drives the simulated compute time; must match
            # ``submodel.num_parameters()``.
            num_params = sum(p.data.size for name, p in cm.named if name in state)
            if cm.seen.pop(key, False):
                named_ids = {id(param): (name, param) for name, param in cm.named}
                grad_view = cm.arena.grad_view if cm.arena is not None else None
                step = CompiledStep(
                    x_t, logits, entries, named_params=named_ids, grad_view=grad_view
                )
                leaves = step.param_leaves
                with span("backward"):
                    loss.backward(retain_graph=True)
                evicted = cm.admit(key, step, num_params)
                stats.captures += 1
                meta = {"outcome": "admitted", "evicted": evicted}
            else:
                # First sighting: nobody will replay this graph.  Its
                # thunks (which hold every node) go now, and backward
                # releases each node as it walks.
                entries.clear()
                with span("backward"):
                    loss.backward()
                cm.remember(key, True)
                stats.first_sightings += 1
                meta = {"outcome": "first_sighting"}

        with span("pack"):
            gradients: Dict[str, np.ndarray] = {}
            for name, param in leaves:
                if name in state and param.grad is not None:
                    gradients[name] = np.array(param.grad, dtype=np.float64)
            buffers: Dict[str, np.ndarray] = {}
            for name, value in cm.named_buffers:
                if name in state:
                    buffers[name] = np.array(value, dtype=np.float64, copy=True)
            reward = batch_accuracy(logits, y)
    finally:
        for _, param in leaves:
            param.grad = None

    if recorder is not None:
        meta["retained_graphs"] = len(cm.steps)
        meta["retained_mb"] = round(cm.retained_bytes / 2**20, 1)
        recorder.meta["tape"] = meta
    return ParticipantUpdate(
        participant_id=task.participant_id,
        gradients=gradients,
        reward=reward,
        num_samples=len(y),
        compute_time_s=device.train_time(num_params, len(y)),
        buffers=buffers,
    )
