"""The end-to-end public API: :class:`FederatedModelSearch`.

Wires data generation, partitioning, participants with bandwidth traces,
the RL controller, the supernet, and the delay-compensated server into
the paper's four-phase pipeline.  One call to :meth:`run` produces a
:class:`SearchReport` with the searched genotype, the retrained model,
its test accuracy, and every intermediate curve.

Example
-------
>>> from repro import ExperimentConfig, FederatedModelSearch
>>> config = ExperimentConfig.small(non_iid=True, seed=1)
>>> report = FederatedModelSearch(config).run()
>>> report.genotype            # the searched architecture
>>> report.test_accuracy       # P4 result
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint import (
    read_checkpoint_meta,
    restore_search_state,
    save_search_state,
)
from repro.controller import ArchitecturePolicy
from repro.data import (
    ArrayDataset,
    dirichlet_partition,
    iid_partition,
    synth_cifar10,
    synth_cifar100,
    synth_svhn,
)
from repro.evaluation import CurveRecorder
from repro.federated import (
    DistributionDelay,
    FederatedSearchServer,
    HardSync,
    Participant,
    RoundResult,
    build_backend,
)
from repro.faults import FaultInjector, FaultPlan
from repro.network import mixed_traces
from repro.search_space import Genotype, Supernet
from repro.telemetry import Telemetry, build_telemetry

from .config import ExperimentConfig
from .phases import (
    evaluate,
    retrain_centralized,
    retrain_federated,
    run_search,
    run_warmup,
)

__all__ = ["SearchReport", "FederatedModelSearch"]

_DATASET_BUILDERS = {
    "cifar10": synth_cifar10,
    "svhn": synth_svhn,
    "cifar100": synth_cifar100,
}


@dataclasses.dataclass
class SearchReport:
    """Everything one pipeline run produces."""

    genotype: Genotype
    test_accuracy: float
    model_parameters: int
    warmup_results: List[RoundResult]
    search_results: List[RoundResult]
    retrain_recorder: CurveRecorder
    search_recorder: CurveRecorder
    mean_submodel_bytes: float
    simulated_search_time_s: float
    #: final :class:`~repro.telemetry.MetricsRegistry` snapshot (empty
    #: when telemetry is disabled); render with
    #: :func:`repro.reporting.metrics_markdown`.
    metrics: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)


class FederatedModelSearch:
    """The paper's system behind one constructor and one ``run()``."""

    def __init__(
        self, config: ExperimentConfig, telemetry: Optional[Telemetry] = None
    ):
        self.config = config
        self.telemetry = telemetry or build_telemetry(config)
        self.rng = np.random.default_rng(config.seed)
        self.train_set, self.test_set = self._build_dataset()
        #: population-scale mode (``config.population > 0``): no eager
        #: shards or participant objects — a registry of lightweight
        #: records plus an on-demand derivation recipe replaces both.
        #: The population-off path below is untouched (same RNG draws in
        #: the same order), so existing runs stay bit-identical.
        self.population = None
        if config.population > 0:
            from repro.population import build_population

            self.population = build_population(
                config, self.train_set, telemetry=self.telemetry
            )
            self.shards = []
            self.participants = []
        else:
            self.shards = self._partition(self.train_set)
            self.participants = self._build_participants()
        self.supernet = Supernet(config.supernet_config(), rng=self.rng)
        self.policy = ArchitecturePolicy(
            config.supernet_config().num_edges, rng=self.rng
        )
        self.backend = build_backend(
            config.backend,
            self.participants,
            config.supernet_config(),
            population=(
                None if self.population is None else self.population.context
            ),
            num_workers=config.num_workers or None,
            task_timeout_s=config.task_timeout_s,
            task_retries=config.task_retries,
            telemetry=self.telemetry,
            socket_workers=config.socket_workers,
            socket_compression=config.socket_compression,
            socket_wire_dtype=config.socket_wire_dtype,
            network_fault_plan=self._network_fault_plan(),
            rng_seed=config.seed,
        )
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_plan_path:
            self.fault_injector = FaultInjector(
                FaultPlan.load(config.fault_plan_path), telemetry=self.telemetry
            )
        self.server = FederatedSearchServer(
            self.supernet,
            self.policy,
            self.participants,
            config=config.server_config(),
            delay_model=self._delay_model(),
            rng=self.rng,
            telemetry=self.telemetry,
            backend=self.backend,
            fault_injector=self.fault_injector,
            population=self.population,
        )
        #: rounds completed so far, per phase — survives checkpoint/resume
        #: so a resumed pipeline's report covers the whole run.
        self._completed: Dict[str, List[RoundResult]] = {
            "warmup": [],
            "search": [],
        }

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_dataset(self) -> Tuple[ArrayDataset, ArrayDataset]:
        builder = _DATASET_BUILDERS[self.config.dataset]
        return builder(
            seed=self.config.seed,
            train_per_class=self.config.train_per_class,
            test_per_class=self.config.test_per_class,
            image_size=self.config.image_size,
        )

    def _partition(self, dataset: ArrayDataset) -> List[ArrayDataset]:
        if self.config.non_iid:
            return dirichlet_partition(
                dataset,
                self.config.num_participants,
                alpha=self.config.dirichlet_alpha,
                rng=self.rng,
            )
        return iid_partition(dataset, self.config.num_participants, rng=self.rng)

    def _build_participants(self) -> List[Participant]:
        traces = None
        if self.config.mobility_modes:
            traces = mixed_traces(
                list(self.config.mobility_modes),
                self.config.num_participants,
                rng=self.rng,
            )
        participants = []
        for k, shard in enumerate(self.shards):
            participants.append(
                Participant(
                    k,
                    shard,
                    batch_size=min(self.config.batch_size, len(shard)),
                    trace=traces[k] if traces else None,
                    rng=np.random.default_rng(self.rng.integers(2**32)),
                    telemetry=self.telemetry,
                )
            )
        return participants

    def _network_fault_plan(self):
        """Load the wire-chaos plan named by ``config.network_faults``.

        Returns None when chaos is off or the plan is empty; only the
        socket backend injects wire faults, but the plan is parsed (and
        validated) regardless of backend so a bad path fails loudly.
        """
        if not self.config.network_faults:
            return None
        from repro.faults.network import NetworkFaultPlan

        plan = NetworkFaultPlan.load(self.config.network_faults)
        return plan if plan.faults else None

    def _delay_model(self):
        if self.config.staleness_mix is None:
            return HardSync()
        return DistributionDelay(
            list(self.config.staleness_mix),
            staleness_threshold=self.config.staleness_threshold,
            rng=np.random.default_rng(self.rng.integers(2**32)),
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str) -> None:
        """Write a crash-consistent checkpoint of the whole pipeline.

        Beyond the server state (see :func:`repro.checkpoint.save_search_state`)
        the checkpoint carries the experiment config and the per-phase
        round results completed so far, so :meth:`resume` can rebuild an
        equivalent pipeline from the file alone.
        """
        save_search_state(
            self.server,
            path,
            extra={
                "config": self.config.to_dict(),
                "progress": {
                    phase: [dataclasses.asdict(r) for r in results]
                    for phase, results in self._completed.items()
                },
            },
        )

    @classmethod
    def resume(
        cls,
        path: str,
        telemetry: Optional[Telemetry] = None,
        config_overrides: Optional[Dict[str, object]] = None,
    ) -> "FederatedModelSearch":
        """Rebuild a pipeline from a :meth:`save_checkpoint` file.

        The resumed pipeline continues exactly where the saved one
        stopped: :meth:`warm_up`/:meth:`search` run only the remaining
        rounds, and a seeded resumed run is bit-identical to one that
        never stopped.  Pending straggler updates are restored with the
        checkpoint (not re-dispatched).  If the config names a fault
        plan, injected crashes at or before the restored round are
        marked as already fired so the resumed run doesn't crash again.

        ``config_overrides`` replaces fields of the embedded config
        before the pipeline is rebuilt — only result-neutral settings
        (backend, workers, telemetry) are safe to override.
        """
        meta = read_checkpoint_meta(path)
        extra = meta.get("extra") or {}
        if "config" not in extra:
            raise ValueError(
                f"checkpoint {path!r} has no embedded config; it was written "
                "by save_search_state directly — restore it with "
                "repro.checkpoint.restore_search_state onto a server you built"
            )
        config_dict = dict(extra["config"])
        if config_overrides:
            unknown = set(config_overrides) - set(config_dict)
            if unknown:
                raise ValueError(
                    f"unknown config override(s): {sorted(unknown)}"
                )
            config_dict.update(config_overrides)
        config = ExperimentConfig.from_dict(config_dict)
        pipeline = cls(config, telemetry=telemetry)
        try:
            restore_search_state(pipeline.server, path)
        except BaseException:
            pipeline.close()  # the backend's workers are already up
            raise
        progress = extra.get("progress") or {}
        pipeline._completed = {
            phase: [RoundResult(**item) for item in progress.get(phase, [])]
            for phase in ("warmup", "search")
        }
        if pipeline.fault_injector is not None:
            pipeline.fault_injector.mark_resumed(pipeline.server.round)
        return pipeline

    def _round_hook(self, phase: str):
        """Per-round callback: record progress + checkpoint cadence."""

        def hook(result: RoundResult) -> None:
            self._completed[phase].append(result)
            every = self.config.checkpoint_every
            if every and self.server.round % every == 0:
                self.save_checkpoint(self.config.checkpoint_path)

        return hook

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def warm_up(self) -> List[RoundResult]:
        """P1: train θ with α frozen (remaining rounds only after resume)."""
        remaining = self.config.warmup_rounds - len(self._completed["warmup"])
        if remaining > 0:
            run_warmup(
                self.server,
                remaining,
                telemetry=self.telemetry,
                on_round=self._round_hook("warmup"),
            )
        return list(self._completed["warmup"])

    def search(self) -> List[RoundResult]:
        """P2: the RL search (remaining rounds only after resume)."""
        remaining = self.config.search_rounds - len(self._completed["search"])
        if remaining > 0:
            run_search(
                self.server,
                remaining,
                telemetry=self.telemetry,
                on_round=self._round_hook("search"),
            )
        return list(self._completed["search"])

    def derive(self) -> Genotype:
        return self.server.derive()

    def retrain(
        self, genotype: Genotype, mode: str = "federated"
    ) -> Tuple[Supernet, CurveRecorder]:
        """P3: retrain the searched architecture from scratch."""
        if mode == "centralized":
            return retrain_centralized(
                genotype,
                self.config,
                self.train_set,
                self.test_set,
                rng=self.rng,
                telemetry=self.telemetry,
            )
        if mode == "federated":
            shards = self.shards
            if self.population is not None and not shards:
                # Population mode keeps no eager shards; P3 retrains on a
                # small fixed federation derived from the same on-demand
                # recipe (the first ``num_participants`` ids).
                from repro.data import derive_shard

                context = self.population.context
                shards = [
                    derive_shard(self.train_set, context.descriptor(k))
                    for k in range(self.config.num_participants)
                ]
            return retrain_federated(
                genotype,
                self.config,
                shards,
                self.test_set,
                rng=self.rng,
                telemetry=self.telemetry,
            )
        raise ValueError(f"mode must be 'centralized' or 'federated', got {mode!r}")

    def close(self) -> None:
        """Release executor workers and flush/close telemetry sinks.

        Idempotent.  The execution backend re-acquires its workers
        lazily, so a closed pipeline can still run further phases.
        """
        self.backend.close()
        self.telemetry.close()

    def run(self, retrain_mode: str = "federated") -> SearchReport:
        """All four phases end to end."""
        telemetry = self.telemetry
        telemetry.emit(
            "run_start",
            dataset=self.config.dataset,
            seed=self.config.seed,
            participants=self.config.num_participants,
            warmup_rounds=self.config.warmup_rounds,
            search_rounds=self.config.search_rounds,
            retrain_mode=retrain_mode,
            backend=self.backend.name,
        )
        with telemetry.span("run"):
            try:
                warmup_results = self.warm_up()
                search_results = self.search()
            finally:
                # P3/P4 never dispatch tasks; release the workers early.
                self.backend.close()
            genotype = self.derive()
            model, retrain_recorder = self.retrain(genotype, mode=retrain_mode)
            accuracy = evaluate(model, self.test_set, telemetry=telemetry)
        telemetry.emit(
            "run_end",
            test_accuracy=accuracy,
            simulated_search_time_s=self.server.clock_s,
        )
        telemetry.flush()
        sizes = [r.mean_submodel_bytes for r in search_results] or [0.0]
        return SearchReport(
            genotype=genotype,
            test_accuracy=accuracy,
            model_parameters=model.num_parameters(),
            warmup_results=warmup_results,
            search_results=search_results,
            retrain_recorder=retrain_recorder,
            search_recorder=self.server.recorder,
            mean_submodel_bytes=float(np.mean(sizes)),
            simulated_search_time_s=self.server.clock_s,
            metrics=telemetry.metrics_snapshot(),
        )
