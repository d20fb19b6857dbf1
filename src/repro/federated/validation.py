"""The server's trust boundary: update validation and quarantine.

Participant replies are hostile input.  A single NaN gradient folded
into ``θ`` poisons every future round; a mis-shaped array crashes the
optimizer; an exploded-norm update (still finite, so ``isfinite`` alone
misses it) drags the supernet arbitrarily far in one step.  The server
therefore validates every arriving update *before* it touches ``θ`` or
``α``:

* :class:`UpdateValidator` — stateless checks against the supernet's
  parameter and buffer tables: finite reward, known parameter names,
  exact shape match, finite gradients, a global gradient-norm limit,
  then known buffer names (``unknown_buffer``), exact buffer shapes
  (``buffer_shape_mismatch``) and finite buffers.  Each array costs one
  float64 dot product, which proves it finite and feeds the norm.  An
  update that passes can be folded into the server's arena as it is:
  every gradient fits its parameter's gradient window and every buffer
  its arena entry.
* :class:`QuarantineTracker` — per-participant strike counting.  A
  rejection is a strike; ``strike_limit`` strikes quarantine the
  participant for ``quarantine_rounds`` rounds, doubling (``backoff``)
  on each repeat offence up to ``max_quarantine_rounds``.  Quarantined
  participants are simply not dispatched to — they look offline, so the
  existing soft-synchronisation path absorbs them and the search
  degrades gracefully instead of diverging.  When the sentence expires
  the participant is re-admitted on probation (strikes reset; the next
  rejection cycle quarantines for twice as long).

Telemetry: ``update.rejected`` (with ``reason``),
``participant.quarantined`` (with ``until_round``, ``offense``), and
``participant.readmitted`` events; ``updates.rejected`` /
``quarantine.total`` counters and a ``quarantine.active`` gauge.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.telemetry import Telemetry

__all__ = ["UpdateValidator", "QuarantineTracker"]


class UpdateValidator:
    """Stateless structural checks on one :class:`ParticipantUpdate`.

    Parameters
    ----------
    param_shapes:
        Name → shape table of every supernet parameter; an update may
        cover any subset (sub-models prune), but never an unknown name
        or a wrong shape.
    buffer_shapes:
        The same table for every supernet buffer (batch-norm running
        statistics), held to the same rule.
    norm_limit:
        Reject when the global L2 norm over all gradient arrays exceeds
        this; ``0`` disables the check.
    """

    def __init__(
        self,
        param_shapes: Dict[str, Tuple[int, ...]],
        buffer_shapes: Dict[str, Tuple[int, ...]],
        norm_limit: float = 1e4,
    ):
        if norm_limit < 0:
            raise ValueError(f"norm_limit must be >= 0, got {norm_limit}")
        self._shapes = {name: tuple(shape) for name, shape in param_shapes.items()}
        self._buffer_shapes = {
            name: tuple(shape) for name, shape in buffer_shapes.items()
        }
        self.norm_limit = float(norm_limit)

    def validate(self, update) -> Optional[str]:
        """Return a rejection reason, or ``None`` if the update is clean."""
        if not np.isfinite(update.reward):
            return "non_finite_reward"
        total_sq = 0.0
        for name, grad in update.gradients.items():
            expected = self._shapes.get(name)
            if expected is None:
                return "unknown_parameter"
            if tuple(grad.shape) != expected:
                return "shape_mismatch"
            square = _sum_of_squares(grad)
            if square is None:
                return "non_finite_gradient"
            total_sq += square
        if self.norm_limit and math.sqrt(total_sq) > self.norm_limit:
            return "norm_outlier"
        for name, value in update.buffers.items():
            expected = self._buffer_shapes.get(name)
            if expected is None:
                return "unknown_buffer"
            if tuple(value.shape) != expected:
                return "buffer_shape_mismatch"
            if _sum_of_squares(value) is None:
                return "non_finite_buffer"
        return None


def _sum_of_squares(array: np.ndarray) -> Optional[float]:
    """``Σ x²`` of ``array`` in float64, or ``None`` if it holds a NaN or
    an inf.

    One reduction per array: a finite sum of squares proves every
    element finite, and the same sum feeds the gradient norm.  Only a
    non-finite sum pays a second pass, to tell a NaN or inf element
    from finite elements whose squares overflow; the latter sum to inf,
    which every norm limit refuses.  ``np.dot`` may round the sum
    differently in the last ulp than an elementwise square-and-sum.
    """
    flat = np.ravel(array).astype(np.float64, copy=False)
    square = float(np.dot(flat, flat))
    if math.isfinite(square):
        return square
    return math.inf if np.isfinite(flat).all() else None


class QuarantineTracker:
    """Strike counting and exponential-backoff quarantine per participant."""

    def __init__(
        self,
        strike_limit: int = 3,
        quarantine_rounds: int = 4,
        backoff: float = 2.0,
        max_quarantine_rounds: int = 256,
        telemetry: Optional[Telemetry] = None,
    ):
        if strike_limit < 1:
            raise ValueError(f"strike_limit must be >= 1, got {strike_limit}")
        if quarantine_rounds < 1:
            raise ValueError(
                f"quarantine_rounds must be >= 1, got {quarantine_rounds}"
            )
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if max_quarantine_rounds < quarantine_rounds:
            raise ValueError(
                "max_quarantine_rounds must be >= quarantine_rounds, got "
                f"{max_quarantine_rounds} < {quarantine_rounds}"
            )
        self.strike_limit = strike_limit
        self.quarantine_rounds = quarantine_rounds
        self.backoff = backoff
        self.max_quarantine_rounds = max_quarantine_rounds
        self.telemetry = telemetry or Telemetry.disabled()
        self._strikes: Dict[int, int] = {}
        #: participant → first round it is admissible again (exclusive bound)
        self._until: Dict[int, int] = {}
        #: participant → how many times it has been quarantined (backoff exponent)
        self._offenses: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def is_quarantined(self, participant: int, round_t: int) -> bool:
        """Gate dispatch; expiry re-admits (on probation) as a side effect."""
        until = self._until.get(participant)
        if until is None:
            return False
        if round_t >= until:
            del self._until[participant]
            self._strikes[participant] = 0
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "participant.readmitted", participant=participant, round=round_t
                )
                self.telemetry.gauge("quarantine.active", len(self._until))
            return False
        return True

    def record_rejection(self, participant: int, round_t: int) -> Optional[int]:
        """Count one strike; returns the quarantine expiry round if the
        strike limit was just reached, else ``None``."""
        strikes = self._strikes.get(participant, 0) + 1
        self._strikes[participant] = strikes
        if strikes < self.strike_limit:
            return None
        offense = self._offenses.get(participant, 0)
        self._offenses[participant] = offense + 1
        duration = min(
            int(round(self.quarantine_rounds * self.backoff**offense)),
            self.max_quarantine_rounds,
        )
        until = round_t + 1 + duration
        self._until[participant] = until
        self._strikes[participant] = 0
        if self.telemetry.enabled:
            self.telemetry.count("quarantine.total")
            self.telemetry.gauge("quarantine.active", len(self._until))
            self.telemetry.emit(
                "participant.quarantined",
                participant=participant,
                round=round_t,
                until_round=until,
                offense=offense + 1,
            )
        return until

    def record_accepted(self, participant: int) -> None:
        """A clean update wipes accumulated strikes (but not offences)."""
        if self._strikes.get(participant):
            self._strikes[participant] = 0

    @property
    def num_quarantined(self) -> int:
        return len(self._until)

    # ------------------------------------------------------------------
    # Checkpoint support (all keys stringified for JSON)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, int]]:
        return {
            "strikes": {str(k): v for k, v in self._strikes.items()},
            "until": {str(k): v for k, v in self._until.items()},
            "offenses": {str(k): v for k, v in self._offenses.items()},
        }

    def load_state_dict(self, state: Dict[str, Dict[str, int]]) -> None:
        self._strikes = {int(k): int(v) for k, v in state.get("strikes", {}).items()}
        self._until = {int(k): int(v) for k, v in state.get("until", {}).items()}
        self._offenses = {int(k): int(v) for k, v in state.get("offenses", {}).items()}
