"""The population façade the server and pipeline talk to.

:class:`PopulationManager` bundles registry + sampler + churn model
behind the two calls the round loop needs — ``begin_round`` (churn, then
cohort selection, plus population telemetry) and ``materialize_cohort``
— and implements the ``Stateful`` protocol over all three components so
the checkpoint layer captures/restores them as one unit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.federated.participant import Participant
from repro.telemetry import Telemetry

from .churn import ChurnModel, ChurnPlan
from .registry import ParticipantRegistry, PopulationContext
from .sampler import CohortSampler, build_sampler

__all__ = ["PopulationManager", "build_population"]


class PopulationManager:
    """Registry + sampler + churn, wired to telemetry, as one handle."""

    def __init__(
        self,
        registry: ParticipantRegistry,
        sampler: CohortSampler,
        churn: Optional[ChurnModel] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.registry = registry
        self.sampler = sampler
        self.churn = churn
        self.telemetry = telemetry or Telemetry.disabled()

    @property
    def context(self) -> PopulationContext:
        return self.registry.context

    def begin_round(self, round_t: int) -> np.ndarray:
        """Advance churn, draw the round's cohort, emit population telemetry.

        Called exactly once per round, server-side, before any dispatch —
        the only place the sampler/churn RNG streams advance, which is
        what keeps cohorts bit-identical across execution backends and
        telemetry/tracing settings.
        """
        registry = self.registry
        if self.churn is not None:
            churn_stats = self.churn.advance(registry, round_t)
        else:
            churn_stats = {"reactivated": int(len(registry.wake_due(round_t)))}
        cohort = self.sampler.sample(registry, round_t)
        telemetry = self.telemetry
        if telemetry.enabled:
            counts = registry.counts()
            if self.churn is not None and any(churn_stats.values()):
                telemetry.emit("population.churn", round=round_t, **churn_stats)
            telemetry.emit(
                "population.round",
                round=round_t,
                cohort=int(len(cohort)),
                strategy=self.sampler.strategy,
                **counts,
            )
            telemetry.gauge("population.registered", counts["registered"])
            telemetry.gauge("population.active", counts["active"])
            telemetry.gauge("population.dormant", counts["dormant"])
            telemetry.gauge("population.departed", counts["departed"])
            telemetry.gauge("population.cohort_size", int(len(cohort)))
        return cohort

    def materialize_cohort(self, cohort: Iterable[int]) -> Dict[int, Participant]:
        return self.registry.materialize_cohort(cohort)

    # Stateful protocol -------------------------------------------------
    def state_dict(self) -> Mapping[str, object]:
        return {
            "registry": self.registry.state_dict(),
            "sampler": self.sampler.state_dict(),
            "churn": None if self.churn is None else self.churn.state_dict(),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        self.registry.load_state_dict(state["registry"])
        self.sampler.load_state_dict(state["sampler"])
        churn_state = state.get("churn")
        if (churn_state is None) != (self.churn is None):
            raise ValueError(
                "checkpoint and server disagree on whether a churn plan is "
                "attached; rebuild with the churn plan the checkpoint was "
                "saved with"
            )
        if self.churn is not None:
            self.churn.load_state_dict(churn_state)


def build_population(
    config, train_set, telemetry: Optional[Telemetry] = None
) -> PopulationManager:
    """Assemble the population subsystem from an ``ExperimentConfig``.

    The shard size is ``min(len(train_set), max(2·batch_size, 32))`` —
    enough local data for distinct mini-batches without scaling with
    the population.
    """
    shard_size = min(len(train_set), max(2 * config.batch_size, 32))
    context = PopulationContext(
        train_set=train_set,
        base_seed=config.seed,
        scheme="dirichlet" if config.non_iid else "iid",
        shard_size=shard_size,
        alpha=config.dirichlet_alpha,
        batch_size=config.batch_size,
    )
    registry = ParticipantRegistry(config.population, context, telemetry=telemetry)
    sampler = build_sampler(config.cohort_strategy, config.cohort_size, config.seed)
    churn = ChurnModel(ChurnPlan.load(config.churn_plan)) if config.churn_plan else None
    return PopulationManager(registry, sampler, churn, telemetry=telemetry)
