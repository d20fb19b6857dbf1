"""Experiment configuration (paper Table I) and its scaled-down defaults.

:meth:`ExperimentConfig.paper` carries the exact hyperparameters of
Table I — useful as ground truth for the configuration bench and for
anyone running at full scale on real hardware.  :meth:`ExperimentConfig.small`
is the simulator-scale profile the tests, examples, and benchmark harness
run by default (smaller images, fewer cells, fewer steps), preserving all
ratios that matter (learning rates, decay, clipping, baseline decay).
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from typing import Dict, Optional, Tuple

from repro.network import MOBILITY_MODES, STRATEGIES
from repro.search_space import SupernetConfig

__all__ = ["ExperimentConfig", "TABLE1_DEFAULTS"]

#: Staleness fallback policies (mirrors ``repro.federated.server``).
_STALENESS_POLICIES = ("compensate", "use", "throw")

#: Execution backends (mirrors ``repro.federated.executor.BACKENDS``;
#: kept literal here so the config layer stays import-light).
_EXECUTION_BACKENDS = ("serial", "process", "socket")

#: Wire options for the socket backend (mirrors
#: ``repro.transport.codec.COMPRESSIONS`` / ``repro.nn.WIRE_DTYPES``).
_SOCKET_COMPRESSIONS = ("none", "zlib")
_SOCKET_WIRE_DTYPES = ("float16", "float32", "float64")

#: Cohort sampling strategies (mirrors
#: ``repro.population.SAMPLER_STRATEGIES``; literal for import-lightness).
_COHORT_STRATEGIES = ("uniform", "weighted")

#: Switches that selected paths which no longer exist.  Config files and
#: checkpoint-embedded configs written before their removal still carry
#: them; :meth:`ExperimentConfig.from_dict` drops them with a warning.
_RETIRED_KEYS = ("delta_dispatch", "param_arena", "tape_compile")


def _default_backend() -> str:
    """Backend default: ``$REPRO_BACKEND`` when set, else ``serial``.

    The environment hook lets a whole test/CI run flip to the process
    backend without touching any call site; an explicit ``backend=``
    argument always wins.
    """
    return os.environ.get("REPRO_BACKEND", "serial")


def _default_compute_dtype() -> str:
    """Replay-dtype default: ``$REPRO_COMPUTE_DTYPE`` when set."""
    return os.environ.get("REPRO_COMPUTE_DTYPE", "") or "float64"


def _default_tape_fusion() -> bool:
    """Fused conv→BN→ReLU default: ``$REPRO_TAPE_FUSION`` when set."""
    return os.environ.get("REPRO_TAPE_FUSION", "").lower() in (
        "1", "true", "yes", "on"
    )


def _default_network_faults() -> Optional[str]:
    """Network-chaos default: ``$REPRO_NETWORK_FAULTS`` when set.

    Same contract as :func:`_default_backend` — the environment hook
    lets CI run the whole suite under a wire fault plan without
    touching call sites.  An empty string means None.
    """
    return os.environ.get("REPRO_NETWORK_FAULTS") or None


def _default_tracing() -> bool:
    """Distributed-tracing default: ``$REPRO_TRACING`` when set.

    Same contract as :func:`_default_backend` — the environment hook
    flips a whole test/CI run to traced execution without touching call
    sites; an explicit ``tracing_enabled=`` argument always wins.
    """
    return os.environ.get("REPRO_TRACING", "").lower() in (
        "1", "true", "yes", "on"
    )

#: Verbatim Table I values (name -> value), kept as a reference artefact
#: that the Table I bench prints and the paper() profile is built from.
TABLE1_DEFAULTS = {
    "batch size": 256,
    "# participant (K)": 10,
    "learning rate (theta)": 0.025,
    "learning rate (P3, centralized)": 0.025,
    "momentum (theta)": 0.9,
    "momentum (P3, centralized)": 0.9,
    "weight decay (theta)": 0.0003,
    "weight decay (P3, centralized)": 0.0003,
    "gradient clip (theta)": 5,
    "gradient clip (P3, centralized)": 5,
    "learning rate (alpha)": 0.003,
    "learning rate (P3, FL)": 0.1,
    "weight decay (alpha)": 0.0001,
    "momentum (P3, FL)": 0.5,
    "gradient clip (alpha)": 5,
    "weight decay (P3, FL)": 0.005,
    "baseline decay (alpha)": 0.99,
    "# warm-up steps": 10000,
    "cutout": 16,
    "# searching steps": 6000,
    "random clip": 4,
    "# training epochs": 600,
    "random horizontal flapping": 0.5,
    "# FL training steps": 6000,
}


def _coerce_value(name: str, type_str: str, value: object) -> object:
    """Check/convert one config value against its declared field type.

    Types are matched by annotation string (the module uses postponed
    evaluation); any new field using one of the types below is covered
    automatically.  Raises :class:`ValueError` naming the key on
    mismatch.
    """

    def fail(expected: str) -> ValueError:
        return ValueError(
            f"config key {name!r} expects {expected}, "
            f"got {type(value).__name__}: {value!r}"
        )

    if type_str == "bool":
        if not isinstance(value, bool):
            raise fail("a bool")
        return value
    if type_str == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise fail("an int")
        return value
    if type_str == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail("a number")
        return float(value)
    if type_str == "str":
        if not isinstance(value, str):
            raise fail("a string")
        return value
    if type_str == "Optional[str]":
        if value is not None and not isinstance(value, str):
            raise fail("a string or null")
        return value
    if type_str == "Optional[Tuple[float, ...]]":
        if value is None:
            return None
        if not isinstance(value, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise fail("a list of numbers or null")
        return tuple(float(v) for v in value)
    if type_str == "Optional[Tuple[str, ...]]":
        if value is None:
            return None
        if not isinstance(value, (list, tuple)) or any(
            not isinstance(v, str) for v in value
        ):
            raise fail("a list of strings or null")
        return tuple(value)
    raise ValueError(
        f"config key {name!r} has unsupported field type {type_str!r}"
    )


@dataclasses.dataclass
class ExperimentConfig:
    """Everything needed to run the four-phase pipeline once."""

    # Data
    dataset: str = "cifar10"
    non_iid: bool = False
    dirichlet_alpha: float = 0.5
    num_participants: int = 10
    train_per_class: int = 40
    test_per_class: int = 10
    image_size: int = 16
    seed: int = 0

    # Search space
    init_channels: int = 6
    num_cells: int = 3
    steps: int = 2

    # Phase lengths
    warmup_rounds: int = 20
    search_rounds: int = 60
    retrain_epochs: int = 10
    fl_retrain_rounds: int = 30

    # Optimisation (Table I ratios)
    batch_size: int = 16
    theta_lr: float = 0.025
    theta_momentum: float = 0.9
    theta_weight_decay: float = 3e-4
    theta_grad_clip: float = 5.0
    alpha_lr: float = 0.003
    alpha_weight_decay: float = 1e-4
    alpha_grad_clip: float = 5.0
    baseline_decay: float = 0.99
    fl_lr: float = 0.1
    fl_momentum: float = 0.5
    fl_weight_decay: float = 0.005

    # Synchronisation
    staleness_threshold: int = 2
    staleness_policy: str = "compensate"
    compensation_lambda: float = 0.5
    staleness_mix: Optional[Tuple[float, ...]] = None

    # Transmission
    transmission_strategy: str = "adaptive"
    mobility_modes: Optional[Tuple[str, ...]] = None

    # Execution engine (see :mod:`repro.federated.executor`): which
    # backend runs participant local steps.  ``serial`` is the in-process
    # reference; ``process`` fans tasks out over a multiprocessing pool;
    # ``socket`` dispatches over TCP to worker daemons
    # (:mod:`repro.transport`).  Seeded results are bit-identical across
    # backends (socket: at the default lossless wire precision).
    backend: str = dataclasses.field(default_factory=_default_backend)
    #: worker processes/daemons for the ``process``/``socket`` backends;
    #: 0 = auto (``min(num_participants, cpu_count)``)
    num_workers: int = 0
    #: per-task deadline (queueing + compute) before a retry / offline
    #: fallback — shared policy for every distributed backend
    task_timeout_s: float = 60.0
    #: re-dispatches after a timeout/crash before a task is declared
    #: failed and its participant goes offline for the round (the socket
    #: backend retries on a different replica when one is live)
    task_retries: int = 1
    #: replay dtype of the compiled compute engine
    #: (:mod:`repro.nn.tape`): "float64" (reference, bit-identical to
    #: the eager step) or "float32" (opt-in, tolerance-verified, ~2x).
    compute_dtype: str = dataclasses.field(default_factory=_default_compute_dtype)
    #: fused conv→BN→ReLU tape primitive (analytic fused backward);
    #: tolerance-equal, not bit-equal, to the unfused composition.
    tape_fusion: bool = dataclasses.field(default_factory=_default_tape_fusion)

    # Socket-backend wire options (ignored by other backends).
    #: worker daemon addresses ("host:port"); None auto-spawns
    #: ``num_workers`` local daemons
    socket_workers: Optional[Tuple[str, ...]] = None
    #: wire compression negotiated at hello: "none" or "zlib"
    socket_compression: str = "none"
    #: wire precision negotiated at hello; "float64" is lossless
    #: (bit-identical runs), "float32"/"float16" trade precision for bytes
    socket_wire_dtype: str = "float64"
    #: also measure exact on-wire payload sizes (packed blob +
    #: compression, ``repro.nn.payload_size_bytes``) each round and emit
    #: them through telemetry next to the analytic Fig. 7 estimates
    measure_wire_bytes: bool = False

    # Telemetry (see :mod:`repro.telemetry`): enabled in-memory by
    # default; set ``telemetry_log_path`` to also stream JSONL events to
    # a run-log file, or ``telemetry_enabled=False`` for the no-op
    # handle (null sink, near-zero overhead).
    telemetry_enabled: bool = True
    telemetry_log_path: Optional[str] = None
    telemetry_buffer_size: int = 65536
    #: distributed tracing (:mod:`repro.telemetry.tracing`): every
    #: dispatched task carries a trace context, workers time the local
    #: step's phases, and the spans ride back on the update for the
    #: round timeline / ``repro trace --chrome`` export.  Requires
    #: telemetry; RNG-neutral — seeded results are bit-identical with
    #: tracing off or on.
    tracing_enabled: bool = dataclasses.field(default_factory=_default_tracing)
    #: opt-in per-op ``repro.nn`` forward profiling inside traced local
    #: steps (keyed by op name and input shape); implies ``tracing_enabled``
    #: semantics only when tracing is on.
    trace_ops: bool = False

    # Robustness (see :mod:`repro.federated.validation` and
    # :mod:`repro.faults`): the server-side update trust boundary and
    # deterministic fault injection.
    validate_updates: bool = True
    update_norm_limit: float = 1e4
    strike_limit: int = 3
    quarantine_rounds: int = 4
    quarantine_backoff: float = 2.0
    #: JSON fault plan (``repro.faults.FaultPlan``) to inject during the
    #: warm-up/search rounds; None = fault-free run
    fault_plan_path: Optional[str] = None

    # Network chaos + resilient dispatch (socket backend; see
    # :mod:`repro.faults.network` and :mod:`repro.transport.resilience`).
    #: JSON network fault plan (``repro.faults.NetworkFaultPlan``)
    #: injected at the wire layer of the socket backend; None (or an
    #: empty plan) leaves the transport untouched — seeded results are
    #: bit-identical to a run without the knob.
    network_faults: Optional[str] = dataclasses.field(
        default_factory=_default_network_faults
    )
    #: consecutive failures that trip a worker's circuit breaker open
    breaker_failure_threshold: int = 3
    #: seconds an open breaker blocks dispatch/redial/respawn before one
    #: half-open probe; doubles on each failed probe (capped at
    #: ``breaker_cooldown_max_s``)
    breaker_cooldown_s: float = 2.0
    breaker_cooldown_max_s: float = 30.0
    #: full-jitter exponential backoff between retry passes:
    #: ``U(0, min(cap, base·2^(attempt−1)))`` from a dedicated RNG
    #: stream; base 0 disables inter-pass delays
    retry_backoff_base_s: float = 0.05
    retry_backoff_cap_s: float = 2.0
    #: derive per-worker task deadlines from observed RTTs (EWMA/p95),
    #: clamped to ``[deadline_floor_s, task_timeout_s]`` — the static
    #: timeout stays the ceiling, adaptation can only tighten it
    adaptive_deadlines: bool = True
    deadline_floor_s: float = 5.0
    #: speculatively re-send a task stuck past its hedge threshold to a
    #: second live replica (first valid result wins; duplicates are
    #: discarded — deterministic because the local step is a pure
    #: function of the task)
    hedge_dispatch: bool = True
    #: seconds before hedging; 0 = adaptive (3×p95 of the primary
    #: worker's task RTTs, once enough samples exist)
    hedge_threshold_s: float = 0.0
    #: total per-task wall budget across every retry pass; 0 = auto
    #: (``(task_retries + 1) × task_timeout_s``, the documented bound)
    task_budget_s: float = 0.0

    # Population-scale rounds (see :mod:`repro.population`): decouple the
    # registered population from the per-round working set.
    #: registered participants (0 = off — the classic fixed
    #: ``num_participants`` regime).  When > 0, ``num_participants`` is
    #: ignored: the server keeps lightweight records for the whole
    #: population and materialises only each round's sampled cohort.
    population: int = 0
    #: participants sampled per round in population mode (clamped to the
    #: eligible population; the paper regime is 10–1000)
    cohort_size: int = 50
    #: cohort selection strategy: "uniform" or "weighted" (selection
    #: probability proportional to device compute speed)
    cohort_strategy: str = "uniform"
    #: JSON churn plan (``repro.population.ChurnPlan``) evolving the
    #: population across rounds — joins, departures, dropout flaps;
    #: None = static population
    churn_plan: Optional[str] = None
    #: samples per on-demand participant shard; 0 = auto
    #: (``min(len(train_set), max(2·batch_size, 32))``)
    population_shard_size: int = 0

    # Checkpointing (see :mod:`repro.checkpoint`): write a
    # crash-consistent search checkpoint every N warm-up/search rounds
    # (0 = off).  ``checkpoint_path`` is required when enabled.
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.dataset not in ("cifar10", "svhn", "cifar100"):
            raise ValueError(
                f"dataset must be cifar10/svhn/cifar100, got {self.dataset!r}"
            )
        if self.num_participants < 1:
            raise ValueError(
                f"num_participants must be >= 1, got {self.num_participants}"
            )
        if self.telemetry_buffer_size < 1:
            raise ValueError(
                f"telemetry_buffer_size must be >= 1, got {self.telemetry_buffer_size}"
            )
        if self.staleness_policy not in _STALENESS_POLICIES:
            raise ValueError(
                f"staleness_policy must be one of {_STALENESS_POLICIES}, "
                f"got {self.staleness_policy!r}"
            )
        if self.transmission_strategy not in STRATEGIES:
            raise ValueError(
                f"transmission_strategy must be one of {STRATEGIES}, "
                f"got {self.transmission_strategy!r}"
            )
        if self.staleness_mix is not None:
            mix = self.staleness_mix
            if len(mix) == 0:
                raise ValueError("staleness_mix must not be empty")
            if any(p < 0 for p in mix):
                raise ValueError(
                    f"staleness_mix entries must be non-negative, got {mix}"
                )
            if sum(mix) <= 0:
                raise ValueError(f"staleness_mix must have positive mass, got {mix}")
            limit = self.staleness_threshold + 2
            if len(mix) > limit:
                raise ValueError(
                    f"staleness_mix has {len(mix)} entries but staleness_threshold="
                    f"{self.staleness_threshold} admits at most {limit} "
                    f"(τ = 0..{self.staleness_threshold} plus one overflow bucket)"
                )
        if self.mobility_modes is not None:
            for mode in self.mobility_modes:
                if mode not in MOBILITY_MODES:
                    raise ValueError(
                        f"unknown mobility mode {mode!r}; choose from "
                        f"{sorted(MOBILITY_MODES)}"
                    )
        if self.backend not in _EXECUTION_BACKENDS:
            raise ValueError(
                f"backend must be one of {_EXECUTION_BACKENDS}, got {self.backend!r}"
            )
        if self.num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {self.num_workers}")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', "
                f"got {self.compute_dtype!r}"
            )
        if self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )
        if self.socket_compression not in _SOCKET_COMPRESSIONS:
            raise ValueError(
                f"socket_compression must be one of {_SOCKET_COMPRESSIONS}, "
                f"got {self.socket_compression!r}"
            )
        if self.socket_wire_dtype not in _SOCKET_WIRE_DTYPES:
            raise ValueError(
                f"socket_wire_dtype must be one of {_SOCKET_WIRE_DTYPES}, "
                f"got {self.socket_wire_dtype!r}"
            )
        if self.socket_workers is not None:
            if len(self.socket_workers) == 0:
                raise ValueError(
                    "socket_workers must name at least one worker or be null"
                )
            for address in self.socket_workers:
                host, sep, port = address.rpartition(":")
                if not sep or not host or not port.isdigit():
                    raise ValueError(
                        f"socket_workers entry {address!r} must look like "
                        "'host:port'"
                    )
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
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                f"breaker_failure_threshold must be >= 1, "
                f"got {self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive, got {self.breaker_cooldown_s}"
            )
        if self.breaker_cooldown_max_s < self.breaker_cooldown_s:
            raise ValueError(
                f"breaker_cooldown_max_s ({self.breaker_cooldown_max_s}) must be "
                f">= breaker_cooldown_s ({self.breaker_cooldown_s})"
            )
        if self.retry_backoff_base_s < 0:
            raise ValueError(
                f"retry_backoff_base_s must be >= 0, got {self.retry_backoff_base_s}"
            )
        if self.retry_backoff_cap_s < 0:
            raise ValueError(
                f"retry_backoff_cap_s must be >= 0, got {self.retry_backoff_cap_s}"
            )
        if self.deadline_floor_s <= 0:
            raise ValueError(
                f"deadline_floor_s must be positive, got {self.deadline_floor_s}"
            )
        if self.hedge_threshold_s < 0:
            raise ValueError(
                f"hedge_threshold_s must be >= 0, got {self.hedge_threshold_s}"
            )
        if self.task_budget_s < 0:
            raise ValueError(
                f"task_budget_s must be >= 0, got {self.task_budget_s}"
            )
        if self.population < 0:
            raise ValueError(f"population must be >= 0, got {self.population}")
        if self.cohort_size < 1:
            raise ValueError(f"cohort_size must be >= 1, got {self.cohort_size}")
        if self.cohort_strategy not in _COHORT_STRATEGIES:
            raise ValueError(
                f"cohort_strategy must be one of {_COHORT_STRATEGIES}, "
                f"got {self.cohort_strategy!r}"
            )
        if self.churn_plan is not None and self.population == 0:
            raise ValueError(
                "churn_plan requires population > 0 (churn evolves the "
                "registered population)"
            )
        if self.population_shard_size < 0:
            raise ValueError(
                f"population_shard_size must be >= 0, "
                f"got {self.population_shard_size}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every > 0 requires checkpoint_path to be set"
            )

    @property
    def num_classes(self) -> int:
        return 20 if self.dataset == "cifar100" else 10

    # ------------------------------------------------------------------
    # Serialization (the ``--config experiment.json`` round trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of every field (tuples become lists).

        ``ExperimentConfig.from_dict(config.to_dict()) == config`` holds
        for every constructible config.
        """
        data = dataclasses.asdict(self)
        for key in ("staleness_mix", "mobility_modes", "socket_workers"):
            if data[key] is not None:
                data[key] = list(data[key])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentConfig":
        """Build a config from a plain dict (e.g. a parsed JSON file).

        Unknown keys and wrongly-typed values raise :class:`ValueError`
        naming the offending key, so a typo in a config file fails at
        load time with a clear message instead of deep inside the
        pipeline.  Retired keys are dropped with a
        :class:`DeprecationWarning`.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"config data must be a dict, got {type(data).__name__}"
            )
        retired = [key for key in _RETIRED_KEYS if key in data]
        if retired:
            warnings.warn(
                f"config key(s) {', '.join(retired)} are retired and ignored: "
                "the path they selected is now the only one",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {k: v for k, v in data.items() if k not in retired}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(fields))
        if unknown:
            raise ValueError(
                f"unknown config key(s): {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(fields))}"
            )
        kwargs = {
            name: _coerce_value(name, fields[name].type, value)
            for name, value in data.items()
        }
        return cls(**kwargs)

    def supernet_config(self) -> SupernetConfig:
        return SupernetConfig(
            num_classes=self.num_classes,
            init_channels=self.init_channels,
            num_cells=self.num_cells,
            steps=self.steps,
        )

    def resilience_config(self):
        """Bundle the breaker/backoff/deadline/hedge knobs for the
        socket backend (:class:`repro.transport.ResilienceConfig`)."""
        from repro.transport.resilience import ResilienceConfig

        return ResilienceConfig(
            breaker_failure_threshold=self.breaker_failure_threshold,
            breaker_cooldown_s=self.breaker_cooldown_s,
            breaker_cooldown_max_s=self.breaker_cooldown_max_s,
            retry_backoff_base_s=self.retry_backoff_base_s,
            retry_backoff_cap_s=self.retry_backoff_cap_s,
            adaptive_deadlines=self.adaptive_deadlines,
            deadline_floor_s=self.deadline_floor_s,
            hedge_dispatch=self.hedge_dispatch,
            hedge_threshold_s=self.hedge_threshold_s,
            task_budget_s=self.task_budget_s,
        )

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    @staticmethod
    def paper(**overrides) -> "ExperimentConfig":
        """Paper-scale profile: Table I verbatim (heavy; real-HW scale)."""
        base = dict(
            batch_size=256,
            num_participants=10,
            image_size=32,
            init_channels=16,
            num_cells=8,
            steps=4,
            warmup_rounds=10000,
            search_rounds=6000,
            retrain_epochs=600,
            fl_retrain_rounds=6000,
            train_per_class=5000,
            test_per_class=1000,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    @staticmethod
    def small(**overrides) -> "ExperimentConfig":
        """Simulator-scale profile used by tests/examples/benches."""
        base = dict(
            batch_size=16,
            num_participants=4,
            image_size=8,
            init_channels=4,
            num_cells=2,
            steps=1,
            warmup_rounds=10,
            search_rounds=30,
            retrain_epochs=6,
            fl_retrain_rounds=15,
            train_per_class=12,
            test_per_class=4,
        )
        base.update(overrides)
        return ExperimentConfig(**base)
