"""Round synchronisation schemes: hard, soft (distributional), latency-driven.

The server's collection behaviour is abstracted as a *delay model*: given
a dispatched round, it decides how many rounds late each participant's
update arrives (``τ = 0`` means fresh).  Three models cover the paper's
experiments:

* :class:`HardSync` — the server waits for everyone; no staleness
  (the "0% staleness" reference configuration).
* :class:`DistributionDelay` — staleness sampled from an explicit mix,
  e.g. the paper's severe setting "30% fresh / 40% one round late /
  20% two rounds late / 10% beyond the threshold" (Fig. 8, Table II).
* :class:`LatencyDrivenDelay` — staleness emerges from simulated
  download + compute + upload times against bandwidth traces and device
  profiles, with the round closing once a fraction of participants have
  reported (the deployed soft-synchronisation behaviour; Table V).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.network import BandwidthTrace

from .participant import DeviceProfile

__all__ = ["RoundDelays", "HardSync", "DistributionDelay", "LatencyDrivenDelay"]


@dataclasses.dataclass(frozen=True)
class RoundDelays:
    """Per-participant staleness (in rounds) plus the round's duration."""

    taus: np.ndarray
    round_duration_s: float


class HardSync:
    """Wait for every participant: all updates fresh, duration = slowest."""

    def delays(
        self,
        payload_bytes: Sequence[float],
        compute_times_s: Sequence[float],
        start_time_s: float = 0.0,
        participant_indices: Optional[Sequence[int]] = None,
    ) -> RoundDelays:
        total = np.asarray(payload_bytes, dtype=float) * 0.0 + np.asarray(
            compute_times_s, dtype=float
        )
        duration = float(total.max()) if len(total) else 0.0
        return RoundDelays(np.zeros(len(total), dtype=int), duration)


class DistributionDelay:
    """Staleness drawn i.i.d. from an explicit distribution.

    ``probabilities[τ]`` is the chance of an update being ``τ`` rounds
    stale; the final entry is the chance of exceeding the staleness
    threshold (encoded as ``threshold + 1`` so the server drops it).

    The paper's severe mix is ``[0.3, 0.4, 0.2, 0.1]`` and the slight mix
    is ``[0.9, 0.09, 0.009, 0.001]`` (Sec. VI-C).
    """

    def __init__(
        self,
        probabilities: Sequence[float],
        staleness_threshold: int,
        rng: Optional[np.random.Generator] = None,
    ):
        probs = np.asarray(probabilities, dtype=float)
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("probabilities must be a non-empty vector")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        total = probs.sum()
        if total <= 0:
            raise ValueError("probabilities must sum to a positive value")
        self.probabilities = probs / total
        self.staleness_threshold = staleness_threshold
        self.rng = rng or np.random.default_rng()

    def delays(
        self,
        payload_bytes: Sequence[float],
        compute_times_s: Sequence[float],
        start_time_s: float = 0.0,
        participant_indices: Optional[Sequence[int]] = None,
    ) -> RoundDelays:
        n = len(payload_bytes)
        buckets = self.rng.choice(len(self.probabilities), size=n, p=self.probabilities)
        taus = buckets.copy()
        # The last bucket means "beyond the threshold" regardless of index.
        overflow = buckets == len(self.probabilities) - 1
        taus = np.where(overflow, self.staleness_threshold + 1, taus)
        duration = float(np.max(compute_times_s)) if n else 0.0
        return RoundDelays(taus.astype(int), duration)


class LatencyDrivenDelay:
    """Staleness emerging from simulated transmission + compute times.

    Each participant's round trip is ``download + compute + upload``
    (upload assumed symmetric with download).  The round closes when
    ``sync_fraction`` of participants have reported; a straggler whose
    round trip spans ``m`` round durations is ``m`` rounds stale.
    """

    def __init__(
        self,
        traces: Sequence[BandwidthTrace],
        sync_fraction: float = 0.7,
    ):
        if not 0.0 < sync_fraction <= 1.0:
            raise ValueError(f"sync_fraction must be in (0, 1], got {sync_fraction}")
        if not traces:
            raise ValueError("at least one bandwidth trace required")
        self.traces = list(traces)
        self.sync_fraction = sync_fraction

    def delays(
        self,
        payload_bytes: Sequence[float],
        compute_times_s: Sequence[float],
        start_time_s: float = 0.0,
        participant_indices: Optional[Sequence[int]] = None,
    ) -> RoundDelays:
        payloads = np.asarray(payload_bytes, dtype=float)
        computes = np.asarray(compute_times_s, dtype=float)
        if participant_indices is not None:
            traces = [self.traces[i] for i in participant_indices]
        else:
            traces = self.traces
        if len(payloads) != len(traces):
            raise ValueError(f"{len(payloads)} payloads vs {len(traces)} traces")
        round_trips = np.empty(len(payloads))
        for k, (trace, payload, compute) in enumerate(
            zip(traces, payloads, computes)
        ):
            down = trace.transfer_time(payload, start_time_s)
            up = trace.transfer_time(payload, start_time_s + down + compute)
            round_trips[k] = down + compute + up
        # Round closes when the sync_fraction quantile has reported.
        m = max(1, int(np.ceil(self.sync_fraction * len(round_trips))))
        close = float(np.sort(round_trips)[m - 1])
        taus = np.floor(round_trips / max(close, 1e-9)).astype(int)
        taus[round_trips <= close] = 0
        return RoundDelays(taus, close)
