"""Staleness memory pools Θ, 𝔸, 𝔾 (Alg. 1 lines 4, 7, 25, 34-35).

The server snapshots the supernet weights, the architecture parameters,
and each participant's sampled binary mask at the start of every round.
When a straggler's update arrives ``τ`` rounds late, the pools supply the
stale ``θ^{t'}``, ``α^{t'}``, and ``g^{t'}`` the update was computed
against, which the delay-compensation equations need.  Entries older than
the staleness threshold ``Δ`` are evicted — their updates would be thrown
away anyway.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.nn import clone_state
from repro.search_space import ArchitectureMask

__all__ = ["MemoryPools"]


class MemoryPools:
    """Bounded per-round snapshots of ``θ``, ``α``, and masks ``g``.

    Live-round θ snapshots are copy-on-write over the server's
    parameter arena: consecutive rounds share the frozen copies of
    parameters whose version did not change between them (only the ~1/N
    sampled slice receives gradient each round), so pool memory scales
    with *changed* parameters × window instead of full θ × window.
    Checkpoint restore re-inserts plain dicts as deep copies.
    """

    def __init__(self, staleness_threshold: int):
        if staleness_threshold < 0:
            raise ValueError(
                f"staleness threshold must be >= 0, got {staleness_threshold}"
            )
        self.staleness_threshold = staleness_threshold
        self._theta: Dict[int, Dict[str, np.ndarray]] = {}
        self._alpha: Dict[int, np.ndarray] = {}
        self._masks: Dict[int, Dict[int, ArchitectureMask]] = {}

    # ------------------------------------------------------------------
    # Saving (Alg. 1 lines 4, 7)
    # ------------------------------------------------------------------
    def save_round(
        self,
        round_t: int,
        theta,
        alpha: np.ndarray,
        versions=None,
    ) -> None:
        """Snapshot ``θ`` and ``α`` for ``round_t``.

        A live round passes the server's :class:`~repro.nn.ParameterArena`
        as ``theta`` with its ``versions``: entries changed since the
        previous snapshot are copied as merged contiguous ranges of the
        flat buffer, the rest share the previously frozen windows.
        Without ``versions`` (checkpoint restore) ``theta`` is a plain
        name → array dict and is deep-copied.
        """
        if versions is None:
            self._theta[round_t] = clone_state(theta)
        else:
            self._theta[round_t] = theta.cow_snapshot(versions)
        self._alpha[round_t] = np.array(alpha, copy=True)
        self._masks.setdefault(round_t, {})

    def save_mask(self, round_t: int, participant: int, mask: ArchitectureMask) -> None:
        self._masks.setdefault(round_t, {})[participant] = mask

    # ------------------------------------------------------------------
    # Retrieval (Alg. 1 line 25)
    # ------------------------------------------------------------------
    def theta(self, round_t: int) -> Dict[str, np.ndarray]:
        return self._require(self._theta, round_t, "θ")

    def alpha(self, round_t: int) -> np.ndarray:
        return self._require(self._alpha, round_t, "α")

    def mask(self, round_t: int, participant: int) -> ArchitectureMask:
        masks = self._require(self._masks, round_t, "g")
        if participant not in masks:
            raise KeyError(
                f"no mask saved for participant {participant} at round {round_t}"
            )
        return masks[participant]

    def has_round(self, round_t: int) -> bool:
        return round_t in self._theta

    # ------------------------------------------------------------------
    # Stateful protocol (checkpoint capture/restore)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """``rounds`` held (ascending), their snapshots as flat
        ``alpha/<t>`` and ``theta/<t>/<name>`` ``arrays``, and every saved
        mask as a ``{round, participant, normal, reduce}`` entry."""
        rounds = sorted(self._theta)
        arrays: Dict[str, np.ndarray] = {}
        masks = []
        for t in rounds:
            arrays[f"alpha/{t}"] = self._alpha[t]
            for name, value in self._theta[t].items():
                arrays[f"theta/{t}/{name}"] = value
            for participant, mask in sorted(self._masks.get(t, {}).items()):
                masks.append(
                    {
                        "round": t,
                        "participant": participant,
                        "normal": list(mask.normal),
                        "reduce": list(mask.reduce),
                    }
                )
        return {"rounds": rounds, "masks": masks, "arrays": arrays}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        arrays = state["arrays"]
        self._theta.clear()
        self._alpha.clear()
        self._masks.clear()
        for t in state["rounds"]:
            prefix = f"theta/{t}/"
            theta = {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            self.save_round(t, theta, arrays[f"alpha/{t}"])
        for entry in state["masks"]:
            mask = ArchitectureMask.from_arrays(entry["normal"], entry["reduce"])
            self.save_mask(entry["round"], entry["participant"], mask)

    # ------------------------------------------------------------------
    # Eviction (Alg. 1 lines 34-35)
    # ------------------------------------------------------------------
    def evict_older_than(self, round_t: int) -> int:
        """Drop snapshots from rounds < ``round_t − Δ``; returns count."""
        horizon = round_t - self.staleness_threshold
        stale_rounds = [r for r in self._theta if r < horizon]
        for r in stale_rounds:
            self._theta.pop(r, None)
            self._alpha.pop(r, None)
            self._masks.pop(r, None)
        return len(stale_rounds)

    def __len__(self) -> int:
        return len(self._theta)

    @staticmethod
    def _require(pool: Dict, round_t: int, what: str):
        if round_t not in pool:
            raise KeyError(
                f"{what} for round {round_t} not in memory "
                f"(evicted or never saved); available: {sorted(pool)}"
            )
        return pool[round_t]
