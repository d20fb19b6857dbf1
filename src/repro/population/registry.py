"""Participant registry: the population as columnar records, not objects.

The cross-device regime registers far more participants than any round
touches.  The registry therefore stores one *record* per participant —
lifecycle state, batch-seed draw counter, dormancy deadline, join round
— as columnar numpy arrays (~25 bytes/participant), and materialises a
full :class:`~repro.federated.participant.Participant` only for the
participants actually sampled into a cohort.  Everything heavyweight
(the data shard, the device profile, the batch size) is derived on
demand from the shared :class:`PopulationContext`, a pure function of
the participant id, so server and workers reconstruct bit-identical
participants without ever shipping per-participant state.

Determinism: a participant's mini-batch seeds are *counter-derived* —
``seed_i = f(base_seed, participant, i)`` where ``i`` is the number of
seeds drawn so far.  The counter lives in the registry (one int64 per
participant), so materialised ``Participant`` objects are disposable:
throwing one away and re-materialising it later continues the exact
same seed sequence.  That is what makes kill/resume and lazy cohorts
bit-identical to a run that kept every object alive.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.data import ArrayDataset, Compose, ShardDescriptor, derive_shard
from repro.federated.executor import ParticipantSpec
from repro.federated.participant import (
    GTX_1080TI,
    JETSON_TX2,
    DeviceProfile,
    Participant,
)
from repro.telemetry import Telemetry

__all__ = [
    "LIFECYCLE_STATES",
    "PopulationContext",
    "ParticipantRecord",
    "ParticipantRegistry",
    "derive_batch_seed",
]

#: Lifecycle states a registered participant moves through (the churn
#: model drives the transitions; see :mod:`repro.population.churn`).
LIFECYCLE_STATES = ("active", "dormant", "departed")

_ACTIVE, _DORMANT, _DEPARTED = 0, 1, 2

#: Domain separator for the counter-derived batch-seed stream.
_BATCH_SEED_STREAM = 0xB5EED

#: Device profiles the context can assign, by name.
_DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    GTX_1080TI.name: GTX_1080TI,
    JETSON_TX2.name: JETSON_TX2,
}


def derive_batch_seed(base_seed: int, participant: int, draw: int) -> int:
    """The ``draw``-th mini-batch seed of ``participant`` — a pure function.

    Replaces the per-participant stateful RNG stream of the eager path:
    the only state is the draw counter, so the sequence survives
    materialise/discard cycles and checkpoints as a single integer.
    """
    rng = np.random.default_rng([_BATCH_SEED_STREAM, base_seed, participant, draw])
    return int(rng.integers(0, 2**63))


@dataclasses.dataclass(frozen=True)
class PopulationContext:
    """Everything needed to rebuild any participant from its id.

    Picklable and immutable: the distributed backends ship one copy to
    each worker at initialisation (the base dataset is a few MB; the
    population may be 100k+), after which a worker can serve a task for
    *any* participant by deriving its spec locally — no per-round
    provisioning, no O(population) spec lists on the wire.
    """

    train_set: ArrayDataset
    base_seed: int
    scheme: str
    shard_size: int
    alpha: float
    batch_size: int
    transform: Optional[Compose] = None
    device_mix: Tuple[str, ...] = (GTX_1080TI.name, JETSON_TX2.name)

    def __post_init__(self) -> None:
        for name in self.device_mix:
            if name not in _DEVICE_PROFILES:
                raise ValueError(
                    f"unknown device profile {name!r}; choose from "
                    f"{sorted(_DEVICE_PROFILES)}"
                )
        if not self.device_mix:
            raise ValueError("device_mix must name at least one profile")

    def descriptor(self, participant: int) -> ShardDescriptor:
        return ShardDescriptor(
            scheme=self.scheme,
            seed=self.base_seed,
            participant=participant,
            size=self.shard_size,
            alpha=self.alpha,
        )

    def device(self, participant: int) -> DeviceProfile:
        return _DEVICE_PROFILES[self.device_mix[participant % len(self.device_mix)]]

    def device_speeds(self, participants: np.ndarray) -> np.ndarray:
        """Per-participant compute speed (1 / seconds-per-param-sample)."""
        speeds = np.array(
            [
                1.0 / _DEVICE_PROFILES[name].seconds_per_param_sample
                for name in self.device_mix
            ]
        )
        return speeds[np.asarray(participants) % len(self.device_mix)]

    def spec(self, participant: int) -> ParticipantSpec:
        """Materialise the worker-side slice of ``participant``."""
        shard = derive_shard(self.train_set, self.descriptor(participant))
        return ParticipantSpec(
            participant_id=participant,
            dataset=shard,
            batch_size=min(self.batch_size, len(shard)),
            transform=self.transform,
            device=self.device(participant),
        )


@dataclasses.dataclass(frozen=True)
class ParticipantRecord:
    """A read-only view of one registry row (for inspection/tests)."""

    participant_id: int
    state: str
    batch_seed_draws: int
    dormant_until: int
    joined_round: int


class _RegistryParticipant(Participant):
    """A cohort-materialised participant whose seed stream is the registry's.

    ``draw_batch_seed`` goes through the registry's draw counter instead
    of a private RNG, so discarding and re-materialising this object
    never perturbs the seed sequence.
    """

    def __init__(self, registry: "ParticipantRegistry", spec: ParticipantSpec, **kwargs):
        super().__init__(
            spec.participant_id,
            spec.dataset,
            batch_size=spec.batch_size,
            transform=spec.transform,
            device=spec.device,
            rng=np.random.default_rng(0),
            **kwargs,
        )
        self._registry = registry

    def draw_batch_seed(self) -> int:
        return self._registry.next_batch_seed(self.participant_id)


class ParticipantRegistry:
    """Columnar store of every registered participant's lightweight record.

    Construction is O(population) ints and touches **no shard data** —
    shards exist only for materialised cohort members.  Implements the
    :class:`repro.core.Stateful` protocol; the arrays land in the
    checkpoint's ``population.bin`` member.
    """

    def __init__(
        self,
        population: int,
        context: PopulationContext,
        telemetry: Optional[Telemetry] = None,
    ):
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        self.context = context
        self.telemetry = telemetry or Telemetry.disabled()
        self._state = np.full(population, _ACTIVE, dtype=np.int8)
        self._draws = np.zeros(population, dtype=np.int64)
        self._dormant_until = np.full(population, -1, dtype=np.int64)
        self._joined_round = np.zeros(population, dtype=np.int64)
        #: cumulative count of Participant materialisations (observability
        #: + the "no eager shards" regression test hooks onto this)
        self.materializations = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_registered(self) -> int:
        return len(self._state)

    def counts(self) -> Dict[str, int]:
        return {
            "registered": int(len(self._state)),
            "active": int(np.sum(self._state == _ACTIVE)),
            "dormant": int(np.sum(self._state == _DORMANT)),
            "departed": int(np.sum(self._state == _DEPARTED)),
        }

    def record(self, participant: int) -> ParticipantRecord:
        return ParticipantRecord(
            participant_id=participant,
            state=LIFECYCLE_STATES[self._state[participant]],
            batch_seed_draws=int(self._draws[participant]),
            dormant_until=int(self._dormant_until[participant]),
            joined_round=int(self._joined_round[participant]),
        )

    def selectable_ids(self, round_t: int) -> np.ndarray:
        """Participants a cohort may be drawn from this round (active only)."""
        return np.flatnonzero(self._state == _ACTIVE)

    # ------------------------------------------------------------------
    # Lifecycle transitions (driven by the churn model)
    # ------------------------------------------------------------------
    def register(self, count: int, round_t: int) -> np.ndarray:
        """Append ``count`` fresh records; returns their new ids."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        start = len(self._state)
        self._state = np.concatenate(
            [self._state, np.full(count, _ACTIVE, dtype=np.int8)]
        )
        self._draws = np.concatenate([self._draws, np.zeros(count, dtype=np.int64)])
        self._dormant_until = np.concatenate(
            [self._dormant_until, np.full(count, -1, dtype=np.int64)]
        )
        self._joined_round = np.concatenate(
            [self._joined_round, np.full(count, round_t, dtype=np.int64)]
        )
        return np.arange(start, start + count, dtype=np.int64)

    def depart(self, participants: np.ndarray) -> None:
        """Permanent departure: never selectable again."""
        self._state[participants] = _DEPARTED
        self._dormant_until[participants] = -1

    def set_dormant(self, participants: np.ndarray, until_rounds: np.ndarray) -> None:
        """Temporary dropout flap: offline until the given round (exclusive)."""
        self._state[participants] = _DORMANT
        self._dormant_until[participants] = until_rounds

    def wake_due(self, round_t: int) -> np.ndarray:
        """Reactivate dormant participants whose flap has ended."""
        due = np.flatnonzero(
            (self._state == _DORMANT) & (self._dormant_until <= round_t)
        )
        if len(due):
            self._state[due] = _ACTIVE
            self._dormant_until[due] = -1
        return due

    # ------------------------------------------------------------------
    # Materialisation + batch seeds
    # ------------------------------------------------------------------
    def next_batch_seed(self, participant: int) -> int:
        draw = int(self._draws[participant])
        self._draws[participant] = draw + 1
        return derive_batch_seed(self.context.base_seed, participant, draw)

    def materialize(self, participant: int) -> Participant:
        """Build the full ``Participant`` for one sampled cohort member."""
        if not 0 <= participant < len(self._state):
            raise KeyError(f"participant {participant} is not registered")
        spec = self.context.spec(participant)
        self.materializations += 1
        return _RegistryParticipant(self, spec, telemetry=self.telemetry)

    def materialize_cohort(self, cohort: Iterable[int]) -> Dict[int, Participant]:
        return {int(k): self.materialize(int(k)) for k in cohort}

    # ------------------------------------------------------------------
    # Stateful protocol (checkpoint capture/restore)
    # ------------------------------------------------------------------
    def state_dict(self) -> Mapping[str, object]:
        return {
            "population": int(len(self._state)),
            "state": self._state.copy(),
            "draws": self._draws.copy(),
            "dormant_until": self._dormant_until.copy(),
            "joined_round": self._joined_round.copy(),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        population = int(state["population"])
        self._state = np.asarray(state["state"], dtype=np.int8).copy()
        self._draws = np.asarray(state["draws"], dtype=np.int64).copy()
        self._dormant_until = np.asarray(
            state["dormant_until"], dtype=np.int64
        ).copy()
        self._joined_round = np.asarray(state["joined_round"], dtype=np.int64).copy()
        if not (
            len(self._state)
            == len(self._draws)
            == len(self._dormant_until)
            == len(self._joined_round)
            == population
        ):
            raise ValueError(
                "registry state arrays disagree on the population size"
            )
