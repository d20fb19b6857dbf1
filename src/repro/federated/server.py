"""The federated model-search server (Alg. 1, server side).

:meth:`FederatedSearchServer.run_round` is Alg. 1 as a list of stages,
each a server method over one :class:`RoundState`:

1. ``_begin_round`` snapshots ``θ`` and ``α`` into the staleness memory
   pools;
2. ``_sample`` decides which participants are reachable this round (the
   availability draws, or the population's sampled cohort);
3. ``_dispatch`` samples one architecture mask per participant from the
   policy (Eq. 4-5), prunes the supernet into per-participant
   :class:`LocalStepTask` messages (sub-model state + mask + batch
   seed), matches sub-model sizes to participant bandwidths (adaptive
   transmission) and runs the tasks through the pluggable execution
   backend;
4. ``_collect`` turns the replies into arrivals: a failed task leaves
   its participant offline, the fault injector damages replies, and the
   delay model decides the round each one is delivered in;
5. ``_ingest`` folds what arrives this round — stragglers first, then
   fresh updates: each is validated, a stale one is repaired by delay
   compensation (Eq. 13, 15) or handled by the configured fallback
   ("use" / "throw"), and its gradients, reward and BN statistics join
   the round's sums;
6. ``_step`` averages the weight gradients (unsampled operations get
   zeros), steps the supernet optimizer, folds the BN statistics back,
   applies the REINFORCE step to ``α`` and updates baseline and curves;
7. ``_end_round`` evicts old snapshots, advances round and clock and
   reports the :class:`RoundResult`.

Hard synchronisation, explicit staleness mixes, and latency-driven soft
synchronisation are all expressed through the pluggable delay model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.controller import (
    AlphaOptimizer,
    ArchitecturePolicy,
    MovingAverageBaseline,
    ReinforceEstimator,
)
from repro.controller.policy import softmax_rows
from repro.evaluation import CurveRecorder, evaluate_accuracy
from repro.network import BandwidthTrace, round_transmission
from repro.nn import payload_size_bytes, state_size_bytes
from repro.search_space import ArchitectureMask, Genotype, Supernet, derive_genotype
from repro.telemetry import Telemetry
from repro.telemetry.tracing import TraceContext

from .compensation import compensate_alpha_gradient, compensate_weight_gradients
from .executor import ExecutionBackend, SerialBackend, TaskResult
from .memory import MemoryPools
from .participant import LocalStepTask, Participant, ParticipantUpdate
from .synchronization import HardSync
from .validation import QuarantineTracker, UpdateValidator
from .versioning import ParameterVersions

__all__ = ["SearchServerConfig", "RoundResult", "FederatedSearchServer"]

STALENESS_POLICIES = ("compensate", "use", "throw")


@dataclasses.dataclass
class SearchServerConfig:
    """Server hyperparameters; defaults follow Table I."""

    theta_lr: float = 0.025
    theta_momentum: float = 0.9
    theta_weight_decay: float = 3e-4
    theta_grad_clip: float = 5.0
    alpha_lr: float = 0.003
    alpha_weight_decay: float = 1e-4
    alpha_grad_clip: float = 5.0
    baseline_decay: float = 0.99
    staleness_threshold: int = 2
    staleness_policy: str = "compensate"
    compensation_lambda: float = 0.5
    transmission_strategy: str = "adaptive"
    #: also compute the *exact* on-wire size of every dispatched
    #: sub-model (packed blob + compression — what the socket
    #: transport ships on a full send) and report measured transmission
    #: latencies through telemetry, next to the analytic Fig. 7 numbers.
    #: Purely observational: assignment, delays, and results are
    #: unchanged.
    measure_wire_bytes: bool = False
    #: wire precision/compression the measured sizes assume (matches the
    #: socket backend's hello-negotiated options)
    wire_dtype: str = "float64"
    wire_compression: str = "none"
    update_theta: bool = True
    update_alpha: bool = True
    #: reject updates whose global gradient L2 norm exceeds this (0 = off)
    update_norm_limit: float = 1e4
    #: rejections before a participant is quarantined
    strike_limit: int = 3
    #: base quarantine length in rounds (doubles per repeat offence)
    quarantine_rounds: int = 4
    #: quarantine-length multiplier per repeat offence
    quarantine_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.staleness_policy not in STALENESS_POLICIES:
            raise ValueError(
                f"staleness_policy must be one of {STALENESS_POLICIES}, "
                f"got {self.staleness_policy!r}"
            )
        if self.compensation_lambda < 0:
            raise ValueError("compensation_lambda must be non-negative")
        if self.update_norm_limit < 0:
            raise ValueError(
                f"update_norm_limit must be >= 0, got {self.update_norm_limit}"
            )
        if self.strike_limit < 1:
            raise ValueError(f"strike_limit must be >= 1, got {self.strike_limit}")
        if self.quarantine_rounds < 1:
            raise ValueError(
                f"quarantine_rounds must be >= 1, got {self.quarantine_rounds}"
            )
        if self.quarantine_backoff < 1.0:
            raise ValueError(
                f"quarantine_backoff must be >= 1, got {self.quarantine_backoff}"
            )


@dataclasses.dataclass
class RoundResult:
    """Diagnostics of one server round."""

    round_index: int
    mean_reward: float
    num_fresh: int
    num_stale_used: int
    num_dropped: int
    round_duration_s: float
    max_transmission_latency_s: float
    mean_submodel_bytes: float
    policy_entropy: float
    #: dispersion of participant rewards this round (the Fig. 12 error bars)
    reward_std: float = float("nan")
    #: participants unreachable this round (availability model,
    #: quarantine, or injected flaps)
    num_offline: int = 0
    #: arrivals rejected by the validation boundary this round
    num_rejected: int = 0


@dataclasses.dataclass
class _PendingUpdate:
    origin_round: int
    delivery_round: int
    mask: ArchitectureMask
    update: ParticipantUpdate


@dataclasses.dataclass
class RoundState:
    """Everything one round of Alg. 1 carries from stage to stage.

    The second half is the streaming fold of the round's usable
    arrivals — REINFORCE terms, the sparse gradient sum, incrementally
    folded BN buffer sums, rewards and outcome counters — so updates are
    ingested one at a time and the end-of-round steps only divide and
    apply.
    """

    t: int
    estimator: ReinforceEstimator
    #: participants the round set out to reach, and those it could
    expected: int = 0
    online: List[int] = dataclasses.field(default_factory=list)
    #: per online slot: the dispatched task, its sub-model's size and the
    #: backend's reply
    tasks: List[LocalStepTask] = dataclasses.field(default_factory=list)
    task_bytes: List[float] = dataclasses.field(default_factory=list)
    results: List[TaskResult] = dataclasses.field(default_factory=list)
    #: this round's replies, each with the round it is delivered in
    arrivals: List[_PendingUpdate] = dataclasses.field(default_factory=list)
    num_failed: int = 0
    max_latency: float = 0.0
    mean_size: float = 0.0
    duration: float = 0.0

    grad_sum: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    buffer_sums: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)
    buffer_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    rewards: List[float] = dataclasses.field(default_factory=list)
    #: ``∇ log p`` under this round's ``α``, per mask of a fresh arrival
    grad_logps: Dict[ArchitectureMask, np.ndarray] = dataclasses.field(
        default_factory=dict
    )
    num_arrivals: int = 0
    num_fresh: int = 0
    num_stale: int = 0
    num_dropped: int = 0
    num_rejected: int = 0
    used: int = 0

    @property
    def num_offline(self) -> int:
        return self.expected - len(self.online) + self.num_failed

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.rewards)) if self.rewards else float("nan")

    @property
    def reward_std(self) -> float:
        """Dispersion of the round's rewards (the Fig. 12 error bars)."""
        return float(np.std(self.rewards)) if self.rewards else float("nan")


class FederatedSearchServer:
    """Coordinates policy, supernet, participants, and synchronisation."""

    def __init__(
        self,
        supernet: Supernet,
        policy: ArchitecturePolicy,
        participants: Sequence[Participant],
        config: Optional[SearchServerConfig] = None,
        delay_model=None,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
        backend: Optional[ExecutionBackend] = None,
        fault_injector=None,
        population=None,
    ):
        if not participants and population is None:
            raise ValueError("at least one participant required")
        if policy.num_edges != supernet.config.num_edges:
            raise ValueError(
                f"policy has {policy.num_edges} edges, supernet expects "
                f"{supernet.config.num_edges}"
            )
        self.supernet = supernet
        #: name → Parameter in module order, walked once: parameters
        #: are never rebound (the arena rebinds only their arrays), and
        #: the θ step and stale repair run every round
        self._params = dict(supernet.named_parameters())
        self.policy = policy
        self.participants = list(participants)
        #: population-scale mode (a :class:`repro.population.
        #: PopulationManager`, duck-typed): the fixed participant list is
        #: replaced by a registry of lightweight records, and each round
        #: works over a sampled cohort materialised on demand.
        self.population = population
        #: this round's materialised cohort (population mode only);
        #: replaced wholesale every round, so server memory stays
        #: O(cohort), never O(registered population).
        self._cohort: Dict[int, Participant] = {}
        self.config = config or SearchServerConfig()
        self.delay_model = delay_model or HardSync()
        self.rng = rng or np.random.default_rng()
        self.telemetry = telemetry or Telemetry.disabled()
        #: execution engine for participant local steps; local steps are
        #: dispatched as :class:`LocalStepTask` messages and collected as
        #: :class:`ParticipantUpdate` replies, so the backend may run
        #: them serially or on worker processes over the wire.
        self.backend: ExecutionBackend = backend or SerialBackend(
            self.participants,
            supernet.config,
            telemetry=self.telemetry,
            population=None if population is None else population.context,
        )
        #: optional :class:`repro.faults.FaultInjector` (duck-typed so the
        #: federated layer never imports the faults package); consulted at
        #: round start (crash), online sampling (flap), and reply
        #: collection (corrupt/drop/duplicate).
        self.fault_injector = fault_injector
        #: the trust boundary: arriving updates are validated before they
        #: can touch ``θ``/``α``, and repeat offenders are quarantined.
        #: Only updates it passes are folded, so the fold never meets a
        #: name or shape the arena does not hold.
        self.validator = UpdateValidator(
            {name: p.data.shape for name, p in self._params.items()},
            {name: value.shape for name, value in supernet.named_buffers()},
            norm_limit=self.config.update_norm_limit,
        )
        self.quarantine = QuarantineTracker(
            strike_limit=self.config.strike_limit,
            quarantine_rounds=self.config.quarantine_rounds,
            backoff=self.config.quarantine_backoff,
            telemetry=self.telemetry,
        )

        self.theta_optimizer = nn.SGD(
            self._params.values(),
            lr=self.config.theta_lr,
            momentum=self.config.theta_momentum,
            weight_decay=self.config.theta_weight_decay,
        )
        self.alpha_optimizer = AlphaOptimizer(
            policy,
            lr=self.config.alpha_lr,
            weight_decay=self.config.alpha_weight_decay,
            grad_clip=self.config.alpha_grad_clip,
        )
        self.baseline = MovingAverageBaseline(decay=self.config.baseline_decay)
        self.pools = MemoryPools(self.config.staleness_threshold)
        self.recorder = CurveRecorder()
        self.round = 0
        self.clock_s = 0.0
        #: which pipeline phase the rounds belong to; the phase runners
        #: in :mod:`repro.core.phases` relabel this ("warmup"/"search")
        #: so telemetry events can be grouped per phase.
        self.phase_label = "search"
        self._pending: List[_PendingUpdate] = []
        #: per-parameter version counters, bumped on every mutation of
        #: the live arrays (optimizer steps, BN aggregation).  They drive
        #: the copy-on-write memory pools and the backends' delta-encoded
        #: dispatch; both degrade to full copies / full sends without
        #: affecting results.
        self.versions = ParameterVersions(
            list(self._params)
            + [name for name, _ in supernet.named_buffers()]
        )
        #: flat parameter arena: every supernet parameter/buffer is a
        #: view into one contiguous float64 buffer, so aggregation, CoW
        #: snapshots, and wire packing work over ranges instead of
        #: per-name dicts.  Values are copied in unchanged and all
        #: arithmetic stays element-wise in per-array order.
        self.arena = nn.ParameterArena.from_module(supernet)

    # ------------------------------------------------------------------
    # The round loop (Alg. 1 lines 3-36)
    # ------------------------------------------------------------------
    def run_round(self) -> RoundResult:
        with self.telemetry.span("search.round", round=self.round):
            state = self._begin_round()
            self._sample(state)
            self._dispatch(state)
            self._collect(state)
            self._ingest(state)
            self._step(state)
            return self._end_round(state)

    def _begin_round(self) -> RoundState:
        t = self.round
        # Injected crashes fire before any round-t state or RNG draw, so
        # a checkpoint taken at the end of round t-1 resumes this round
        # bit-identically.
        if self.fault_injector is not None:
            self.fault_injector.maybe_crash(t)
        self.telemetry.emit("round_start", round=t, phase=self.phase_label)
        self.pools.save_round(
            t, self.arena, self.policy.alpha, versions=self.versions
        )
        return RoundState(t, ReinforceEstimator(self.policy))

    def _sample(self, state: RoundState) -> None:
        """Which participants are reachable this round.

        Models the paper's motivating failure ("a participant loses
        connection with the server"): each participant is online with its
        configured availability.  With soft synchronisation the search
        proceeds regardless; a blocking implementation would hang here.
        Quarantined participants and injected availability flaps are
        treated exactly like natural disconnects: the participant simply
        isn't dispatched to and counts toward ``num_offline``.

        In population mode the candidates are the cohort the population
        manager draws (churn and sampling run on its private RNG
        streams) and there are no per-participant availability draws:
        churn dropout flaps *are* the availability model at population
        scale, which keeps server RNG consumption O(cohort) instead of
        O(population).  The survivors are materialised for the round.
        """
        t = state.t
        population = self.population
        if population is None:
            members = range(len(self.participants))
        else:
            members = [int(k) for k in population.begin_round(t)]
        state.expected = len(members)
        for k in members:
            if self.quarantine.is_quarantined(k, t):
                continue
            if self.fault_injector is not None and self.fault_injector.force_offline(
                t, k
            ):
                continue
            if population is None:
                availability = self.participants[k].availability
                if not (availability >= 1.0 or self.rng.random() < availability):
                    continue
            state.online.append(k)
        if population is not None:
            self._cohort = population.materialize_cohort(state.online)
            provision = getattr(self.backend, "provision", None)
            if provision is not None:
                # Serial backend: reuse the server-materialised participants
                # (distributed backends derive specs worker-side instead).
                provision(list(self._cohort.values()))

    def _dispatch(self, state: RoundState) -> None:
        """Sample sub-models, assign them to the online participants by
        bandwidth, and run one :class:`LocalStepTask` each on the backend."""
        online = state.online
        if not online:
            return
        t = state.t
        telemetry = self.telemetry
        masks = [self.policy.sample_mask() for _ in online]
        # Built once per distinct mask and shared by its tasks: the states
        # hold *live* references into the supernet (see
        # Supernet.submodel_state), so nothing is copied on the dispatch
        # path; every consumer copies before mutating.
        built = {}
        for mask in dict.fromkeys(masks):
            submodel = self.supernet.submodel_state(mask)
            built[mask] = (
                submodel,
                float(state_size_bytes(submodel)),
                self.versions.subset(submodel),
            )
        states = [built[mask][0] for mask in masks]
        sizes = [built[mask][1] for mask in masks]
        assignment, state.max_latency, latencies = self._assign(states, sizes, online)
        state.mean_size = float(np.mean(sizes))
        tracing = telemetry.enabled and telemetry.tracing
        for slot, k in enumerate(online):
            mask = masks[assignment[slot]]
            submodel, size, versions = built[mask]
            self.pools.save_mask(t, k, mask)
            trace = None
            if tracing:
                trace = TraceContext(
                    trace_id=telemetry.trace_id,
                    parent_span_id=telemetry.current_span_id,
                    dispatch_ts=telemetry.now(),
                    profile_ops=telemetry.trace_ops,
                )
            state.tasks.append(
                LocalStepTask(
                    participant_id=k,
                    round_index=t,
                    mask=mask,
                    state=submodel,
                    batch_seed=self._participant(k).draw_batch_seed(),
                    state_versions=versions,
                    trace=trace,
                )
            )
            state.task_bytes.append(size)
            if telemetry.enabled:
                telemetry.emit(
                    "dispatch",
                    round=t,
                    participant=k,
                    bytes=size,
                    latency_s=float(latencies[slot]) if latencies is not None else 0.0,
                )
                telemetry.observe("submodel.bytes", size)
        state.results = self.backend.run_tasks(state.tasks)

    def _collect(self, state: RoundState) -> None:
        """Turn the backend's replies into arrivals with a delivery round."""
        t = state.t
        telemetry = self.telemetry
        sizes: List[float] = []
        indices: List[int] = []
        compute_times: List[float] = []
        for slot, result in enumerate(state.results):
            k = state.online[slot]
            if not result.ok:
                # Worker crash / timeout: the participant is offline
                # this round; soft synchronisation absorbs the gap.
                state.num_failed += 1
                if telemetry.enabled:
                    telemetry.count("updates.task_failures")
                    telemetry.emit(
                        "participant_failed",
                        round=t,
                        participant=k,
                        attempts=result.attempts,
                        error=result.error,
                    )
                continue
            # The injector damages replies here — after the backend
            # returned them (backend-agnostic, deterministic) and
            # before they enter the pending queue.
            updates = [result.update]
            if self.fault_injector is not None:
                updates = self.fault_injector.transform_update(t, k, result.update)
            for update in updates:
                state.arrivals.append(
                    _PendingUpdate(t, -1, state.tasks[slot].mask, update)
                )
                sizes.append(state.task_bytes[slot])
                indices.append(k)
                compute_times.append(update.compute_time_s)
        if indices:
            delays = self.delay_model.delays(
                sizes,
                np.asarray(compute_times),
                start_time_s=self.clock_s,
                participant_indices=indices,
            )
            for item, tau in zip(state.arrivals, delays.taus):
                item.delivery_round = t + int(tau)
            state.duration = delays.round_duration_s

    def _ingest(self, state: RoundState) -> None:
        """Streaming aggregation, one order in every mode: stragglers
        that matured this round first (queue order), then each fresh
        (τ=0) update.  Fresh updates never pile up in the pending queue,
        so per-round transients stay O(cohort) however large the
        population grows; only genuinely delayed ones are staged."""
        t = state.t
        matured = [p for p in self._pending if p.delivery_round == t]
        self._pending = [p for p in self._pending if p.delivery_round > t]
        for item in matured + state.arrivals:
            if item.delivery_round == t:
                self._ingest_arrival(state, item)
            else:
                self._pending.append(item)

    def _step(self, state: RoundState) -> None:
        """Apply the folded round: θ step, BN fold, α step, records."""
        t = state.t
        telemetry = self.telemetry
        if state.num_arrivals and state.used == 0:
            # Every arrival this round was rejected or dropped: skip the
            # θ/α steps entirely (an all-garbage round must not move the
            # model) and flag the round as degraded.
            if telemetry.enabled:
                telemetry.count("rounds.degraded")
            telemetry.emit(
                "round.degraded",
                round=t,
                num_arrivals=state.num_arrivals,
                num_rejected=state.num_rejected,
                num_dropped=state.num_dropped,
            )
        if state.used and self.config.update_theta:
            self._step_theta(state.grad_sum, state.used)
        if state.used:
            self._apply_buffer_sums(state.buffer_sums, state.buffer_counts)
        if state.used and self.config.update_alpha:
            alpha_grad = state.estimator.gradient()
            if telemetry.enabled:
                norm = float(np.linalg.norm(alpha_grad))
                telemetry.observe("alpha.grad_norm", norm)
                telemetry.emit(
                    "alpha_step", round=t, grad_norm=norm, num_updates=state.used
                )
            self.alpha_optimizer.step(alpha_grad)
        rewards = state.rewards
        if rewards:
            self.baseline.update(rewards)
        self.recorder.record("train_accuracy", state.mean_reward if rewards else 0.0)
        self.recorder.record("train_accuracy_std", state.reward_std if rewards else 0.0)
        self.recorder.record("round_duration_s", state.duration)
        self.recorder.record("max_transmission_latency_s", state.max_latency)
        self.recorder.record("policy_entropy", self.policy.entropy())
        self._record_operation_preferences()

    def _end_round(self, state: RoundState) -> RoundResult:
        t = state.t
        result = RoundResult(
            round_index=t,
            mean_reward=state.mean_reward,
            num_fresh=state.num_fresh,
            num_stale_used=state.num_stale,
            num_dropped=state.num_dropped,
            round_duration_s=state.duration,
            max_transmission_latency_s=state.max_latency,
            mean_submodel_bytes=state.mean_size,
            policy_entropy=self.policy.entropy(),
            reward_std=state.reward_std,
            num_offline=state.num_offline,
            num_rejected=state.num_rejected,
        )
        self.pools.evict_older_than(t)
        self.clock_s += state.duration
        self.round += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("rounds.total")
            telemetry.count("updates.offline_slots", result.num_offline)
            telemetry.observe("round.duration_s", state.duration)
            telemetry.observe("transmission.max_latency_s", state.max_latency)
            telemetry.observe("policy.entropy", result.policy_entropy)
            if np.isfinite(result.mean_reward):
                telemetry.observe("reward", result.mean_reward)
            telemetry.gauge("clock.simulated_s", self.clock_s)
            telemetry.gauge("round.index", self.round)
            telemetry.emit(
                "round_end",
                round=t,
                phase=self.phase_label,
                mean_reward=None if not np.isfinite(result.mean_reward) else result.mean_reward,
                num_fresh=result.num_fresh,
                num_stale_used=result.num_stale_used,
                num_dropped=result.num_dropped,
                num_rejected=result.num_rejected,
                num_offline=result.num_offline,
                duration_s=state.duration,
                max_latency_s=state.max_latency,
            )
        return result

    def _participant(self, k: int) -> Participant:
        """This round's live object for participant ``k`` (cohort-aware)."""
        if self.population is not None:
            return self._cohort[k]
        return self.participants[k]

    def run(self, rounds: int) -> List[RoundResult]:
        """Convenience loop; returns per-round diagnostics."""
        return [self.run_round() for _ in range(rounds)]

    def derive(self) -> Genotype:
        """Decode the current policy into the searched architecture."""
        return derive_genotype(self.policy.alpha)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _assign(
        self,
        states: Sequence[Dict[str, np.ndarray]],
        sizes: Sequence[float],
        online: Sequence[int],
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """Match sub-models to the online participants' bandwidths (Fig. 7):
        ``(assignment, max latency, per-slot latencies)``."""
        wire_sizes = None
        if self.config.measure_wire_bytes:
            wire_sizes = [
                float(
                    payload_size_bytes(
                        state,
                        compressed=self.config.wire_compression == "zlib",
                        dtype=self.config.wire_dtype,
                    )
                )
                for state in states
            ]
            if self.telemetry.enabled:
                for wire_size in wire_sizes:
                    self.telemetry.observe("transmission.wire_bytes", wire_size)
        traces = [self._participant(k).trace for k in online]
        if any(trace is None for trace in traces):
            return np.arange(len(online)), 0.0, None
        report = round_transmission(
            sizes,
            traces,
            strategy=self.config.transmission_strategy,
            start_time=self.clock_s,
            rng=self.rng,
            wire_sizes_bytes=wire_sizes,
        )
        if report.wire_latencies_s is not None and self.telemetry.enabled:
            # Measured counterpart of the analytic Fig. 7 latency: the
            # same assignment, real container bytes on the wire.
            self.telemetry.observe(
                "transmission.wire_max_latency_s", report.max_wire_latency_s
            )
            self.telemetry.emit(
                "transmission.wire",
                round=self.round,
                max_latency_s=report.max_latency_s,
                wire_max_latency_s=report.max_wire_latency_s,
                wire_bytes_total=float(np.sum(report.wire_bytes)),
            )
        return report.assignment, report.max_latency_s, report.latencies_s

    def _ingest_arrival(self, state: RoundState, item: _PendingUpdate) -> None:
        """Fold one arrived update into the round.

        Validation first (the trust boundary — garbage earns a strike
        even when it arrived stale), then the fresh / stale-compensated
        / dropped outcome.  Calling it per arrival is what makes the
        aggregation *streaming*: gradients land in the (arena) gradient
        buffer and BN sums fold incrementally, in arrival order, so the
        end-of-round steps only divide and apply.
        """
        state.num_arrivals += 1
        t = state.t
        tau = t - item.origin_round
        update = item.update
        telemetry = self.telemetry
        reason = self.validator.validate(update)
        if reason is not None:
            state.num_rejected += 1
            self.quarantine.record_rejection(update.participant_id, t)
            if telemetry.enabled:
                telemetry.count("updates.rejected")
                telemetry.count(f"updates.rejected.{reason}")
                telemetry.emit(
                    "update.rejected",
                    round=t,
                    origin_round=item.origin_round,
                    participant=update.participant_id,
                    staleness=tau,
                    reason=reason,
                )
            return
        if tau and (
            tau > self.config.staleness_threshold
            or self.config.staleness_policy == "throw"
            or not self.pools.has_round(item.origin_round)
        ):
            state.num_dropped += 1
            outcome = "dropped"
        else:
            self._accumulate(state, item, tau)
            self.quarantine.record_accepted(update.participant_id)
            if tau == 0:
                state.num_fresh += 1
                outcome = "fresh"
            else:
                state.num_stale += 1
                outcome = (
                    "stale_used"
                    if self.config.staleness_policy == "use"
                    else "stale_compensated"
                )
        if telemetry.enabled:
            telemetry.count(
                f"updates.{'stale_used' if outcome.startswith('stale') else outcome}"
            )
            telemetry.observe("update.staleness", tau)
            telemetry.emit(
                "arrival",
                round=t,
                origin_round=item.origin_round,
                participant=update.participant_id,
                staleness=tau,
                outcome=outcome,
                reward=update.reward,
            )

    def _accumulate(self, state: RoundState, item: _PendingUpdate, tau: int) -> None:
        """Add one accepted arrival's ``advantage · ∇ log p`` term,
        gradients, reward and BN statistics to the round's sums.

        A stale arrival's ``∇ log p`` is taken under the stale ``α`` the
        straggler sampled from; with the "compensate" policy it and the
        weight gradients are first repaired (Alg. 1 lines 25-28).
        """
        update = item.update
        gradients = update.gradients
        if tau == 0:
            # α moves only in _step, so one ∇ log p per mask serves the round.
            grad_logp = state.grad_logps.get(item.mask)
            if grad_logp is None:
                grad_logp = self.policy.grad_log_prob(item.mask)
                state.grad_logps[item.mask] = grad_logp
        else:
            stale_alpha = self.pools.alpha(item.origin_round)
            grad_logp = item.mask.as_onehot() - softmax_rows(stale_alpha)
            if self.config.staleness_policy != "use":
                lam = self.config.compensation_lambda
                grad_logp = compensate_alpha_gradient(
                    grad_logp, self.policy.alpha, stale_alpha, lam
                )
                stale_theta = self.pools.theta(item.origin_round)
                gradients = compensate_weight_gradients(
                    gradients,
                    {name: self._params[name].data for name in gradients},
                    {name: stale_theta[name] for name in gradients},
                    lam,
                )
        advantage = self.baseline.advantage(update.reward)
        state.estimator.add_gradient_term(advantage * grad_logp)
        self._add_gradients(state.grad_sum, gradients)
        state.rewards.append(update.reward)
        # First-copy-then-add, in acceptance order.
        sums, counts = state.buffer_sums, state.buffer_counts
        for name, value in update.buffers.items():
            if name in sums:
                sums[name] = sums[name] + value
                counts[name] += 1
            else:
                sums[name] = np.array(value, copy=True)
                counts[name] = 1
        state.used += 1

    def _add_gradients(
        self, grad_sum: Dict[str, np.ndarray], gradients: Dict[str, np.ndarray]
    ) -> None:
        """Accumulate sparse per-name gradients in place.

        Updates only carry gradients for sampled parameters, so the sum
        stays name-sparse — no dense zero-filled dicts are ever built.
        The first arrival for a name is copied (``np.copyto``) into the
        arena's contiguous gradient window for that name; later arrivals
        add in place, in arrival order, so the round's accumulated
        gradient materialises directly in the flat buffer (averaged
        later with merged-range vector ops in _step_theta).  The
        validator has already matched every name and shape against the
        supernet, so every gradient has its window.
        """
        for name, grad in gradients.items():
            if name in grad_sum:
                grad_sum[name] += grad
            else:
                buf = self.arena.grad_view(name)
                np.copyto(buf, grad)
                grad_sum[name] = buf

    def _record_operation_preferences(self) -> None:
        """Track which operations the policy currently prefers.

        One series per candidate operation: the fraction of edges (over
        both cell types) whose argmax is that operation.  Useful for
        diagnosing collapse (e.g. ``none``/skip dominance) during long
        searches.
        """
        from repro.search_space import PRIMITIVES

        modes = self.policy.probabilities().argmax(axis=-1)
        for index, name in enumerate(PRIMITIVES):
            self.recorder.record(
                f"op_preference/{name}", float(np.mean(modes == index))
            )

    def _apply_buffer_sums(
        self, sums: Dict[str, np.ndarray], counts: Dict[str, int]
    ) -> None:
        """Average the round's accumulated BN stats back into the supernet.

        The sums arrive pre-folded (see :meth:`_accumulate`); only
        buffers present in at least one used update move — buffers of
        never-sampled operations keep their previous values.  The
        validator has matched every name and shape, so each average is
        written in place into its arena entry and the supernet's buffer
        stays the arena's view.
        """
        for name, total in sums.items():
            self.arena.write(name, total / counts[name])
        self.versions.bump(sums)

    def evaluate_architecture(
        self, dataset, mask: Optional[ArchitectureMask] = None, batch_size: int = 64
    ) -> float:
        """Eval-mode accuracy of an architecture under the current supernet.

        Defaults to the policy's most likely architecture.  Its
        batch-norm statistics are the participants' running statistics,
        which every round folds back into the supernet.
        """
        mask = mask or self.policy.mode_mask()
        submodel = self.supernet.extract_submodel(mask, rng=self.rng)
        return evaluate_accuracy(submodel, dataset, batch_size=batch_size)

    def _step_theta(self, grad_sum: Dict[str, np.ndarray], count: int) -> None:
        """Average accumulated gradients (zeros for unsampled ops), clip,
        and step the supernet optimizer.

        A zero-update round (every arrival rejected or dropped) is a
        no-op: stepping would divide by zero and apply pure weight decay
        where the round produced no information.
        """
        if count == 0:
            return
        self.theta_optimizer.zero_grad()
        # Every sum is an arena gradient window (see _add_gradients):
        # averaged in place over merged contiguous ranges.
        self.arena.average_grads(grad_sum, count)
        for name, param in self._params.items():
            if name in grad_sum:
                param.grad = grad_sum[name]
        norm = nn.clip_grad_norm(self._params.values(), self.config.theta_grad_clip)
        if self.telemetry.enabled:
            self.telemetry.observe("theta.grad_norm", norm)
            self.telemetry.emit(
                "theta_step", round=self.round, grad_norm=norm, num_updates=count
            )
        self.theta_optimizer.step()
        # The optimizer mutates exactly the parameters that received
        # gradient this round (SGD skips grad-less parameters entirely).
        self.versions.bump(grad_sum)

    # ------------------------------------------------------------------
    # Stateful protocol (checkpoint capture/restore)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Round counter, virtual clock, every RNG stream the round loop
        consumes, and the in-flight stragglers in full: one ``pending``
        entry of scalars each, next to its gradients and buffers as flat
        ``grad/<name>`` / ``buf/<name>`` arrays in ``pending_arrays``."""
        pending, pending_arrays = [], []
        for item in self._pending:
            update = item.update
            pending.append(
                {
                    "origin_round": item.origin_round,
                    "delivery_round": item.delivery_round,
                    "participant_id": update.participant_id,
                    "reward": float(update.reward),
                    "num_samples": int(update.num_samples),
                    "compute_time_s": float(update.compute_time_s),
                    "mask_normal": list(item.mask.normal),
                    "mask_reduce": list(item.mask.reduce),
                }
            )
            arrays = {f"grad/{name}": g for name, g in update.gradients.items()}
            arrays.update({f"buf/{name}": b for name, b in update.buffers.items()})
            pending_arrays.append(arrays)
        delay_rng = getattr(self.delay_model, "rng", None)
        return {
            "round": self.round,
            "clock_s": self.clock_s,
            "rng": {
                "server": self.rng.bit_generator.state,
                "policy": self.policy.rng.bit_generator.state,
                "participants": [p.rng.bit_generator.state for p in self.participants],
                "delay_model": (
                    None if delay_rng is None else delay_rng.bit_generator.state
                ),
            },
            "pending": pending,
            "pending_arrays": pending_arrays,
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Inverse of :meth:`state_dict` onto a server built with the same
        participants and delay model.  Stragglers are re-queued verbatim
        for their original delivery rounds — nothing is re-dispatched."""
        rng = state["rng"]
        if len(rng["participants"]) != len(self.participants):
            raise ValueError(
                f"checkpoint has {len(rng['participants'])} participants, "
                f"server has {len(self.participants)}"
            )
        delay_rng = getattr(self.delay_model, "rng", None)
        if (delay_rng is None) != (rng["delay_model"] is None):
            raise ValueError(
                "checkpoint and server disagree on the delay model's RNG stream "
                f"(checkpoint has one: {rng['delay_model'] is not None}, server "
                f"has one: {delay_rng is not None}); rebuild the server with the "
                "delay model the checkpoint was saved with"
            )
        self.rng.bit_generator.state = rng["server"]
        self.policy.rng.bit_generator.state = rng["policy"]
        for participant, saved in zip(self.participants, rng["participants"]):
            participant.rng.bit_generator.state = saved
        if delay_rng is not None:
            delay_rng.bit_generator.state = rng["delay_model"]
        self.round = int(state["round"])
        self.clock_s = float(state["clock_s"])

        def strip(arrays: Mapping[str, np.ndarray], prefix: str) -> Dict[str, np.ndarray]:
            return {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }

        self._pending = [
            _PendingUpdate(
                origin_round=int(entry["origin_round"]),
                delivery_round=int(entry["delivery_round"]),
                mask=ArchitectureMask.from_arrays(
                    entry["mask_normal"], entry["mask_reduce"]
                ),
                update=ParticipantUpdate(
                    participant_id=int(entry["participant_id"]),
                    gradients=strip(arrays, "grad/"),
                    reward=float(entry["reward"]),
                    num_samples=int(entry["num_samples"]),
                    compute_time_s=float(entry["compute_time_s"]),
                    buffers=strip(arrays, "buf/"),
                ),
            )
            for entry, arrays in zip(state["pending"], state["pending_arrays"])
        ]
        # A restored server is a *new* timeline: any parameter version a
        # worker cached against the pre-crash server must never satisfy a
        # delta reference.  Bumping every version forces the first dispatch
        # after resume to ship full state (correctness never depends on
        # cache warmth).
        self.versions.bump_all()
