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
import warnings
from typing import Dict, Optional, Tuple

from repro.federated.executor import BACKENDS
from repro.federated.server import STALENESS_POLICIES, SearchServerConfig
from repro.network import MOBILITY_MODES, STRATEGIES
from repro.search_space import SupernetConfig

__all__ = ["ExperimentConfig", "TABLE1_DEFAULTS"]

#: Keys that config files and checkpoint-embedded configs written
#: before their removal still carry: name -> (former default, where the
#: value lives now).  :meth:`ExperimentConfig.from_dict` drops a key at
#: its former default (what those checkpoints embed) with a warning; any
#: other value raises, so a resumed run cannot silently change
#: behaviour.  The three path switches are dropped at ``_ANY`` value:
#: the path they selected is the only one, and bit-identical.
_ANY = object()
_RESILIENCE = "it is a repro.transport.resilience module constant"
_DISPATCH = "the dispatch mechanism it tuned is deleted"
_SERVER = "it is a repro.federated.SearchServerConfig default"
_RETIRED_KEYS = {
    "delta_dispatch": (_ANY, ""),
    "param_arena": (_ANY, ""),
    "tape_compile": (_ANY, ""),
    "breaker_failure_threshold": (3, _RESILIENCE),
    "breaker_cooldown_s": (2.0, _RESILIENCE),
    "breaker_cooldown_max_s": (30.0, _RESILIENCE),
    "retry_backoff_base_s": (0.05, _DISPATCH),
    "retry_backoff_cap_s": (2.0, _DISPATCH),
    "adaptive_deadlines": (True, _DISPATCH),
    "deadline_floor_s": (5.0, _DISPATCH),
    "hedge_dispatch": (True, _DISPATCH),
    "hedge_threshold_s": (0.0, _DISPATCH),
    "task_budget_s": (0.0, _DISPATCH),
    "update_norm_limit": (1e4, _SERVER),
    "strike_limit": (3, _SERVER),
    "quarantine_rounds": (4, _SERVER),
    "quarantine_backoff": (2.0, _SERVER),
    "telemetry_buffer_size": (65536, "it is the repro.telemetry.MemorySink default"),
    "population_shard_size": (0, "repro.population.build_population sizes shards"),
    "tape_fusion": (False, "the fused primitive it selected is deleted"),
    "validate_updates": (True, "every update is validated, always"),
}


def _option(default, **metadata):
    """A field declared once: its default plus the ``metadata`` (range
    and CLI surface) described on :class:`ExperimentConfig`."""
    return dataclasses.field(default=default, metadata=metadata)


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
    """Everything needed to run the four-phase pipeline once.

    An option is declared once, on its field.  ``metadata`` carries its
    range — ``ge`` / ``gt`` (inclusive / exclusive lower bound) or
    ``choices`` — which :meth:`__post_init__` enforces, and its CLI
    surface — ``flag``, ``metavar``, ``help`` — from which
    :mod:`repro.__main__` generates ``repro run``'s arguments.  A bool
    field's flag flips it away from its default.
    """

    # Data
    dataset: str = _option(
        "cifar10",
        choices=("cifar10", "svhn", "cifar100"),
        flag="--dataset",
    )
    non_iid: bool = _option(False, flag="--non-iid", help="Dirichlet(0.5) shards")
    dirichlet_alpha: float = 0.5
    num_participants: int = _option(10, ge=1, flag="--participants", metavar="K")
    train_per_class: int = 40
    test_per_class: int = 10
    image_size: int = _option(16, ge=1)
    seed: int = _option(0, flag="--seed")

    # Search space
    init_channels: int = 6
    num_cells: int = 3
    steps: int = 2

    # Phase lengths
    warmup_rounds: int = _option(20, ge=0, flag="--warmup-rounds")
    search_rounds: int = _option(60, ge=0, flag="--search-rounds")
    retrain_epochs: int = _option(10, ge=0)
    fl_retrain_rounds: int = _option(30, ge=0)

    # Optimisation (Table I ratios)
    batch_size: int = _option(16, ge=1)
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
    staleness_threshold: int = _option(2, ge=0)
    staleness_policy: str = _option(
        "compensate",
        choices=STALENESS_POLICIES,
        flag="--staleness-policy",
    )
    compensation_lambda: float = 0.5
    staleness_mix: Optional[Tuple[float, ...]] = None

    # Transmission
    transmission_strategy: str = _option("adaptive", choices=STRATEGIES)
    mobility_modes: Optional[Tuple[str, ...]] = None

    # Execution engine (see :mod:`repro.federated.executor`): which
    # backend runs participant local steps.  ``serial`` is the in-process
    # reference; ``process`` forks local worker processes and ``socket``
    # dispatches to worker daemons, both over the framed TCP protocol of
    # :mod:`repro.transport`.  Seeded results are bit-identical across
    # backends (socket: at the default lossless wire precision).
    backend: str = _option(
        "serial",
        choices=BACKENDS,
        flag="--backend",
        help="execution engine for participant local steps "
        "(default: serial); seeded results are bit-identical across "
        "backends",
    )
    #: 0 = auto (``min(num_participants, cpu_count, 4)``)
    num_workers: int = _option(
        0,
        ge=0,
        flag="--workers",
        metavar="N",
        help="worker processes/daemons for --backend process|socket "
        "(default: min(participants, cpu count, 4))",
    )
    #: queueing + compute — shared policy for every distributed backend
    task_timeout_s: float = _option(
        60.0,
        gt=0,
        flag="--task-timeout",
        metavar="SECONDS",
        help="per-task deadline before retry / offline fallback",
    )
    #: a task out of retries is declared failed and its participant goes
    #: offline for the round
    task_retries: int = _option(
        1,
        ge=0,
        flag="--task-retries",
        metavar="N",
        help="retries per failed task, each on a different worker "
        "when possible (default: 1)",
    )
    #: read by :mod:`repro.federated.compiled` (via ``supernet_config()``);
    #: float32 cuts a ``search-serial`` round p50 by 29 %, ahead in 6 of
    #: 6 pairs (EXPERIMENTS.md "Sizing: float32 on ``search-serial``")
    compute_dtype: str = _option(
        "float64",
        choices=("float64", "float32"),
        flag="--compute-dtype",
        help="dtype every local step computes in: float64 (reference) "
        "or float32 (opt-in, tolerance-verified; default: float64)",
    )

    # Socket-backend wire options (ignored by other backends).
    #: None auto-spawns ``num_workers`` local daemons
    socket_workers: Optional[Tuple[str, ...]] = _option(
        None,
        flag="--socket-workers",
        metavar="HOST:PORT",
        help="connect --backend socket to these already-running "
        "'repro serve' daemons instead of spawning local ones",
    )
    #: negotiated at hello (``repro.transport.codec.COMPRESSIONS``,
    #: literal here because the transport is imported only when used)
    socket_compression: str = _option(
        "none",
        choices=("none", "zlib"),
        flag="--wire-compression",
        help="payload compression for --backend socket (default: none)",
    )
    #: negotiated at hello (``repro.nn.WIRE_DTYPES``)
    socket_wire_dtype: str = _option(
        "float64",
        choices=("float16", "float32", "float64"),
        flag="--wire-dtype",
        help="wire precision for --backend socket tensors; float64 is "
        "lossless and preserves bit-identical results (default: float64)",
    )
    #: packed blob + compression (``repro.nn.payload_size_bytes``)
    measure_wire_bytes: bool = _option(
        False,
        flag="--measure-wire",
        help="measure exact on-wire payload sizes each round and report "
        "them through telemetry (alongside the analytic Fig. 7 estimate)",
    )

    # Telemetry (see :mod:`repro.telemetry`): enabled in-memory by
    # default; ``telemetry_enabled=False`` gives the no-op handle.
    telemetry_enabled: bool = _option(
        True,
        flag="--no-telemetry",
        help="disable telemetry entirely (null sink, near-zero overhead)",
    )
    telemetry_log_path: Optional[str] = _option(
        None,
        flag="--telemetry-log",
        metavar="PATH",
        help="also stream telemetry events to a JSONL run log at PATH",
    )
    #: see :mod:`repro.telemetry.tracing`; the spans ride back on the
    #: update for the round timeline / ``repro trace --chrome`` export.
    #: Requires telemetry; RNG-neutral.
    tracing_enabled: bool = _option(
        False,
        flag="--tracing",
        help="distributed tracing: tasks carry a trace context, workers "
        "time local-step phases, and span trees merge into the round "
        "timeline (seeded results are bit-identical with tracing off "
        "or on)",
    )
    #: per-op ``repro.nn`` forward profiling inside traced local steps
    #: (keyed by op name and input shape); only when tracing is on
    #: (``--trace-ops`` turns both on)
    trace_ops: bool = False

    # Robustness (see :mod:`repro.faults`): deterministic fault
    # injection.  The server-side update trust boundary
    # (:mod:`repro.federated.validation`) is always on; its thresholds
    # are ``SearchServerConfig`` defaults.
    #: injected during the warm-up/search rounds; None = fault-free run
    fault_plan_path: Optional[str] = _option(
        None,
        flag="--faults",
        metavar="PLAN.JSON",
        help="inject faults from a repro.faults.FaultPlan JSON file "
        "(corrupted updates, drops, flaps, forced crashes); seeded and "
        "deterministic",
    )
    #: injected at the wire layer of the socket backend (see
    #: :mod:`repro.faults.network`); None (or an empty plan) leaves the
    #: transport untouched — seeded results are bit-identical to a run
    #: without the knob.  The circuit-breaker parameters that ride it
    #: out are :mod:`repro.transport.resilience` constants.
    network_faults: Optional[str] = _option(
        None,
        flag="--network-faults",
        metavar="PLAN.JSON",
        help="inject wire-level chaos from a "
        "repro.faults.NetworkFaultPlan JSON file (latency, drops, "
        "refused dials, partitions, throttling, frame corruption); "
        "socket backend only, seeded and deterministic",
    )

    # Population-scale rounds (see :mod:`repro.population`): decouple the
    # registered population from the per-round working set.
    #: 0 = off — the classic fixed ``num_participants`` regime.  When
    #: > 0, ``num_participants`` is ignored: the server keeps
    #: lightweight records for the whole population and materialises
    #: only each round's sampled cohort.
    population: int = _option(
        0,
        ge=0,
        flag="--population",
        metavar="N",
        help="population mode: register N lightweight participant "
        "records and sample a per-round cohort instead of running every "
        "participant every round; server memory stays O(cohort), not "
        "O(population)",
    )
    #: clamped to the eligible population; the paper regime is 10–1000
    cohort_size: int = _option(
        50,
        ge=1,
        flag="--cohort-size",
        metavar="C",
        help="participants sampled per round in population mode "
        "(default: 50)",
    )
    cohort_strategy: str = _option(
        "uniform",
        choices=("uniform", "weighted"),  # population.SAMPLER_STRATEGIES
        flag="--cohort-strategy",
        help="cohort sampling: uniform over active participants, or "
        "weighted by device compute speed (default: uniform)",
    )
    #: None = static population
    churn_plan: Optional[str] = _option(
        None,
        flag="--churn-plan",
        metavar="PLAN.JSON",
        help="evolve the population from a repro.population.ChurnPlan "
        "JSON file (joins, permanent departures, temporary dropout "
        "flaps); seeded and deterministic",
    )

    # Checkpointing (see :mod:`repro.checkpoint`): crash-consistent
    # search checkpoints (0 = off).
    checkpoint_every: int = _option(
        0,
        ge=0,
        flag="--checkpoint-every",
        metavar="N",
        help="checkpoint every N warm-up/search rounds (requires "
        "--checkpoint)",
    )
    checkpoint_path: Optional[str] = _option(
        None,
        flag="--checkpoint",
        metavar="PATH",
        help="write a crash-consistent search checkpoint to PATH "
        "(with --checkpoint-every)",
    )

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "ge" in meta and value < meta["ge"]:
                raise ValueError(f"{f.name} must be >= {meta['ge']}, got {value}")
            if "gt" in meta and value <= meta["gt"]:
                raise ValueError(f"{f.name} must be > {meta['gt']}, got {value}")
            if "choices" in meta and value not in meta["choices"]:
                raise ValueError(
                    f"{f.name} must be one of {meta['choices']}, got {value!r}"
                )
        # The server's own checks (e.g. compensation_lambda) run here,
        # at config-load time, not when the pipeline is assembled.
        self.server_config()
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
        for mode in self.mobility_modes or ():
            if mode not in MOBILITY_MODES:
                raise ValueError(
                    f"unknown mobility mode {mode!r}; choose from "
                    f"{sorted(MOBILITY_MODES)}"
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
        if self.churn_plan is not None and self.population == 0:
            raise ValueError(
                "churn_plan requires population > 0 (churn evolves the "
                "registered population)"
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
        :class:`DeprecationWarning` — a retired field only at its former
        default, any other value raises.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"config data must be a dict, got {type(data).__name__}"
            )
        retired = [key for key in _RETIRED_KEYS if key in data]
        for key in retired:
            former, home = _RETIRED_KEYS[key]
            if former is not _ANY and data[key] != former:
                raise ValueError(
                    f"config key {key!r} is retired and loads only at its "
                    f"former default {former!r}, not {data[key]!r}: {home}"
                )
        if retired:
            warnings.warn(
                f"config key(s) {', '.join(retired)} are retired and ignored: "
                "the path or default each held is now the only one",
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
            compute_dtype=self.compute_dtype,
        )

    def server_config(self) -> SearchServerConfig:
        """The server's hyperparameters: every ``SearchServerConfig``
        field this config also declares, by name, plus the two wire
        options it spells ``socket_*``."""
        shared = {f.name for f in dataclasses.fields(SearchServerConfig)} & {
            f.name for f in dataclasses.fields(self)
        }
        return SearchServerConfig(
            wire_dtype=self.socket_wire_dtype,
            wire_compression=self.socket_compression,
            **{name: getattr(self, name) for name in shared},
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
