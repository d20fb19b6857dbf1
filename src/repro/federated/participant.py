"""Federated participants: local training of received sub-models.

The participant-side algorithm (Alg. 1 lines 37-42) is deliberately tiny:
receive a sub-model, sample one local mini-batch, run one forward/backward
pass, return the weight gradients and the training-accuracy reward —
both obtained from the same backward propagation.

The server↔participant boundary is an explicit message API:
:class:`LocalStepTask` (what the server sends) in,
:class:`ParticipantUpdate` (what comes back) out.  Both are plain
picklable dataclasses, and :func:`run_local_step` is a pure function of
the task plus the participant's static local state (shard, batch size,
device profile) — no shared mutable objects cross the boundary, which is
what lets :mod:`repro.federated.executor` run local steps in worker
processes and still produce bit-identical results.

Participants also carry a :class:`DeviceProfile` (how fast they compute)
and a bandwidth trace (how fast they communicate), which the simulator
uses to produce realistic round timings (Table V, Fig. 7).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.nn as nn
from repro.data import ArrayDataset, Compose, DataLoader
from repro.evaluation import batch_accuracy
from repro.network import BandwidthTrace
from repro.search_space import ArchitectureMask, Supernet, SupernetConfig
from repro.telemetry import Telemetry
from repro.telemetry.tracing import SpanRecorder, TraceContext, null_span

__all__ = [
    "DeviceProfile",
    "GTX_1080TI",
    "JETSON_TX2",
    "LocalStepTask",
    "ParticipantUpdate",
    "ParticipantSpec",
    "Participant",
    "run_local_step",
    "run_local_group",
]


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Compute-speed model: seconds per (parameter x sample) trained.

    Calibrated so a round on the paper's hardware scale reproduces the
    Table V ordering: a GTX 1080 Ti finishes the search in < 2.5 h while
    a Jetson TX2 needs < 10 h — a factor-4 speed gap.
    """

    name: str
    seconds_per_param_sample: float

    def __post_init__(self) -> None:
        if self.seconds_per_param_sample <= 0:
            raise ValueError("seconds_per_param_sample must be positive")

    def train_time(self, num_parameters: int, batch_size: int) -> float:
        """Wall-clock seconds for one local forward/backward pass."""
        return self.seconds_per_param_sample * num_parameters * batch_size


#: One 1080 Ti training step on a ~0.27 MB sub-model (~67.5k params) with
#: batch 256 takes ~0.35 s (matches < 2.5 h for 10k search + 10k warm-up
#: steps, Table V).
GTX_1080TI = DeviceProfile("gtx-1080ti", seconds_per_param_sample=2.0e-8)

#: The TX2 is ~4x slower, matching the < 10 h Table V row.
JETSON_TX2 = DeviceProfile("jetson-tx2", seconds_per_param_sample=8.0e-8)


@dataclasses.dataclass(frozen=True)
class LocalStepTask:
    """One unit of participant work, as the server puts it on the wire.

    Everything a local step depends on travels inside the task: the
    pruned sub-model weights, the architecture mask to rebuild the
    sub-model's structure from, and the seed of the mini-batch draw.
    Batch-seed derivation lives on the *server* side (drawn from the
    participant's RNG in dispatch order) so that worker scheduling order
    can never perturb RNG streams — seeded runs are bit-identical under
    every execution backend.
    """

    participant_id: int
    round_index: int
    mask: ArchitectureMask
    state: Dict[str, np.ndarray]
    batch_seed: int
    #: Server-side version of each entry in ``state`` (delta dispatch);
    #: ``None`` only on hand-built tasks, which always travel in full.
    state_versions: Optional[Dict[str, int]] = None
    #: Parameters *not* shipped: name → version the worker must already
    #: hold in its cache (see :mod:`repro.federated.versioning`).  Always
    #: ``None`` by the time the task reaches ``run_local_step``.
    state_refs: Optional[Dict[str, int]] = None
    #: Distributed-tracing context (:mod:`repro.telemetry.tracing`);
    #: ``None`` when tracing is off.
    trace: Optional[TraceContext] = None


@dataclasses.dataclass
class ParticipantUpdate:
    """What a participant returns to the server (Alg. 1 line 42).

    ``buffers`` carries the sub-model's non-trainable state (batch-norm
    running statistics) after the local step, so the server can keep the
    supernet's buffers fresh for evaluation — a detail the paper leaves
    implicit but any deployment needs.
    """

    participant_id: int
    gradients: Dict[str, np.ndarray]
    reward: float
    num_samples: int
    compute_time_s: float
    buffers: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    #: Worker-side span payload (:meth:`SpanRecorder.payload`) when the
    #: task carried a trace context; piggybacked back to the server and
    #: merged into the round timeline by the backend.  ``None`` when
    #: tracing is off — it never influences aggregation.
    spans: Optional[Dict] = None


@dataclasses.dataclass(frozen=True)
class ParticipantSpec:
    """The immutable, picklable slice of a participant a local step needs.

    Worker processes never see live :class:`Participant` objects (those
    hold RNG state, traces, and telemetry handles that must stay in the
    coordinator); they get the data shard and the static step physics.
    """

    participant_id: int
    dataset: ArrayDataset
    batch_size: int
    transform: Optional[Compose] = None
    device: DeviceProfile = GTX_1080TI

    @staticmethod
    def from_participant(participant: "Participant") -> "ParticipantSpec":
        return ParticipantSpec(
            participant_id=participant.participant_id,
            dataset=participant.dataset,
            batch_size=participant.loader.batch_size,
            transform=participant.loader.transform,
            device=participant.device,
        )


def run_local_step(
    task: LocalStepTask,
    dataset: ArrayDataset,
    batch_size: int,
    supernet_config: SupernetConfig,
    transform: Optional[Compose] = None,
    device: DeviceProfile = GTX_1080TI,
    recorder: Optional[SpanRecorder] = None,
) -> ParticipantUpdate:
    """Execute one :class:`LocalStepTask` — the pure server↔participant step.

    Applies ``task.state`` under ``task.mask``, draws the local
    mini-batch from ``task.batch_seed``, and runs one forward/backward
    pass.  Every source of randomness is in the task, so the same task
    always yields the same :class:`ParticipantUpdate`, in any process,
    under any scheduling order.  When a ``recorder`` is given the phases
    are bracketed with worker-side spans ("build", "forward",
    "backward", "pack") — timing only, never numerics.

    The one-member case of :func:`run_local_group`.
    """
    spec = ParticipantSpec(task.participant_id, dataset, batch_size, transform, device)
    return run_local_group([task], [spec], supernet_config, recorder)[0]


def run_local_group(
    tasks: Sequence[LocalStepTask],
    specs: Sequence[ParticipantSpec],
    supernet_config: SupernetConfig,
    recorder: Optional[SpanRecorder] = None,
) -> List[ParticipantUpdate]:
    """Run tasks that share a mask, a batch shape and the *same* state
    arrays as one step with their batches stacked; one update per task,
    in order, each bit-identical to its own :func:`run_local_step`.

    Served by :func:`repro.federated.compiled.run_compiled_group` —
    bit-identical to :func:`_run_eager_step` per member in float64.  A
    group it cannot stack runs one task at a time.
    """
    from .compiled import run_compiled_group

    updates = run_compiled_group(tasks, specs, supernet_config, recorder)
    if updates is None:
        updates = [
            run_local_group([task], [spec], supernet_config)[0]
            for task, spec in zip(tasks, specs)
        ]
    return updates


def _run_eager_step(
    task: LocalStepTask,
    dataset: ArrayDataset,
    batch_size: int,
    supernet_config: SupernetConfig,
    transform: Optional[Compose] = None,
    device: DeviceProfile = GTX_1080TI,
    recorder: Optional[SpanRecorder] = None,
) -> ParticipantUpdate:
    """The reference local step: rebuild the pruned sub-model from
    ``task.mask`` + ``task.state`` and run one forward/backward pass on
    the task's batch (Alg. 1 lines 40-42).  The tests' oracle for the
    compiled engine, which must match it bit for bit.

    ``recorder`` (tracing) only brackets the phases with span timers —
    the numerics are untouched, so traced and untraced steps produce
    bit-identical updates.
    """
    span = recorder.span if recorder is not None else null_span
    with span("build"):
        submodel = Supernet(
            supernet_config, rng=np.random.default_rng(0), mask=task.mask
        )
        submodel.load_state_dict(dict(task.state))
        loader = DataLoader(
            dataset,
            batch_size=min(batch_size, len(dataset)),
            transform=transform,
            rng=np.random.default_rng(task.batch_seed),
        )
        x, y = loader.sample_batch()
    submodel.train()
    submodel.zero_grad()
    with span("forward"):
        logits = submodel(x)
        loss = nn.functional.cross_entropy(logits, y)
    with span("backward"):
        loss.backward()
    with span("pack"):
        gradients = {
            name: param.grad.copy()
            for name, param in submodel.named_parameters()
            if param.grad is not None
        }
        buffers = {
            name: np.array(value, copy=True)
            for name, value in submodel.named_buffers()
        }
        reward = batch_accuracy(logits, y)
    return ParticipantUpdate(
        participant_id=task.participant_id,
        gradients=gradients,
        reward=reward,
        num_samples=len(y),
        compute_time_s=device.train_time(submodel.num_parameters(), len(y)),
        buffers=buffers,
    )


class Participant:
    """One federated device with a local data shard.

    Parameters
    ----------
    participant_id:
        Stable identifier used for mask bookkeeping.
    dataset:
        The local (typically non-i.i.d.) shard; never leaves the device.
    batch_size:
        Local mini-batch size (Table I: 256; scaled down in practice).
    transform:
        Optional augmentation applied when sampling batches.
    device:
        Compute-speed profile for timing simulation.
    trace:
        Bandwidth trace for transmission simulation (optional; the
        scheduler may also work with plain bandwidth numbers).
    """

    def __init__(
        self,
        participant_id: int,
        dataset: ArrayDataset,
        batch_size: int,
        transform: Optional[Compose] = None,
        device: DeviceProfile = GTX_1080TI,
        trace: Optional[BandwidthTrace] = None,
        availability: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if not 0.0 <= availability <= 1.0:
            raise ValueError(f"availability must be in [0, 1], got {availability}")
        self.participant_id = participant_id
        self.dataset = dataset
        self.device = device
        self.trace = trace
        self.telemetry = telemetry or Telemetry.disabled()
        #: probability of being online (reachable) in any given round; the
        #: paper's motivating failure mode is a participant "losing
        #: connection with the server" — availability < 1 models that.
        self.availability = availability
        self.rng = rng or np.random.default_rng()
        self.loader = DataLoader(
            dataset, batch_size=batch_size, transform=transform, rng=self.rng
        )

    def draw_batch_seed(self) -> int:
        """Next mini-batch seed from this participant's private RNG stream.

        The *server* calls this while building a :class:`LocalStepTask`
        (in deterministic dispatch order), so the seed sequence — and
        hence every batch a participant ever trains on — is independent
        of which execution backend runs the step.
        """
        return int(self.rng.integers(0, 2**63))

    def execute_task(
        self,
        task: LocalStepTask,
        supernet_config: SupernetConfig,
        recorder: Optional[SpanRecorder] = None,
    ) -> ParticipantUpdate:
        """Run one :class:`LocalStepTask` in-process (the serial backend)."""
        with self.telemetry.span(
            "participant.local_step", participant=self.participant_id
        ):
            return run_local_step(
                task,
                self.dataset,
                self.loader.batch_size,
                supernet_config,
                transform=self.loader.transform,
                device=self.device,
                recorder=recorder,
            )

    def num_samples(self) -> int:
        return len(self.dataset)
