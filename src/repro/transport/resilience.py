"""Resilient-dispatch machinery: breakers, health scores, backoff.

Pure bookkeeping, no sockets: the :class:`SocketBackend`'s one dispatch
loop consults these pieces when it claims a task and when it settles an
attempt's outcome.

* :class:`CircuitBreaker` — the classic three-state machine per worker.
  ``closed`` dispatches freely; ``failure_threshold`` *consecutive*
  failures trip it ``open``, which rejects dispatch (and gates respawn)
  until ``cooldown_s`` has passed; then one ``half_open`` probe is
  allowed through — success closes the breaker, failure re-opens it
  with the cooldown doubled (capped at ``cooldown_max_s``).
* :class:`WorkerHealth` — failure history + task/heartbeat RTT (EWMA
  and a recent-sample p95) folded into a ``score()`` in ``[0, 1]`` that
  orders dispatch, plus the adaptive per-task ``deadline()`` and
  ``hedge_threshold()`` derived from those RTTs.
* :class:`RetryBackoff` — exponential backoff with *full jitter*
  (AWS-style: ``U(0, min(cap, base·2^(attempt−1)))``) before a failed
  task re-enters the round's queue, drawn from a dedicated ``numpy`` RNG
  stream so resilience never perturbs model or search randomness.
* :class:`ResilienceConfig` — the knob bundle the executor threads from
  :class:`repro.core.config.ExperimentConfig` into the backend.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "WorkerHealth",
    "RetryBackoff",
    "ResilienceConfig",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: RTT samples needed before adaptive deadlines/hedging kick in; below
#: this the static ``task_timeout_s`` applies and hedging stays off.
MIN_RTT_SAMPLES = 5


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Every resilient-dispatch knob, with the config-field defaults."""

    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    breaker_cooldown_max_s: float = 30.0
    retry_backoff_base_s: float = 0.05
    retry_backoff_cap_s: float = 2.0
    adaptive_deadlines: bool = True
    deadline_floor_s: float = 5.0
    hedge_dispatch: bool = True
    #: 0 = adaptive (from the worker's RTT p95)
    hedge_threshold_s: float = 0.0
    #: total per-task wall budget across every attempt and hedge;
    #: 0 = auto: ``(task_retries + 1) × task_timeout_s``
    task_budget_s: float = 0.0


class CircuitBreaker:
    """closed → open on consecutive failures → half-open probe → closed.

    ``on_transition(old, new)`` fires on every state change so the
    backend can emit ``transport.breaker`` telemetry without this class
    importing telemetry.  A ``clock`` injection point keeps the state
    machine unit-testable without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 2.0,
        cooldown_max_s: float = 30.0,
        on_transition: Optional[Callable[[str, str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.base_cooldown_s = cooldown_s
        self.cooldown_max_s = max(cooldown_s, cooldown_max_s)
        self._on_transition = on_transition
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._cooldown_s = cooldown_s
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.transitions = 0

    @property
    def state(self) -> str:
        """Current state, surfacing open→half-open cooldown expiry."""
        if self._state == BREAKER_OPEN and self._cooldown_over():
            return BREAKER_HALF_OPEN
        return self._state

    @property
    def cooldown_s(self) -> float:
        return self._cooldown_s

    def _cooldown_over(self) -> bool:
        return self._clock() - self._opened_at >= self._cooldown_s

    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        self.transitions += 1
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    # ------------------------------------------------------------------
    def try_acquire(self) -> bool:
        """May the caller dispatch one unit of work right now?

        In ``half_open`` only a single probe is admitted until its
        outcome is recorded.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if not self._cooldown_over():
                return False
            self._transition(BREAKER_HALF_OPEN)
            self._probe_in_flight = True
            return True
        # half-open: one probe at a time
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        self._probe_in_flight = False
        self._consecutive_failures = 0
        if self._state != BREAKER_CLOSED:
            self._cooldown_s = self.base_cooldown_s
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self._probe_in_flight = False
        self._consecutive_failures += 1
        if self._state == BREAKER_HALF_OPEN:
            self._cooldown_s = min(self._cooldown_s * 2.0, self.cooldown_max_s)
            self._opened_at = self._clock()
            self._transition(BREAKER_OPEN)
        elif (
            self._state == BREAKER_CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self._clock()
            self._transition(BREAKER_OPEN)


class WorkerHealth:
    """Failure history + RTT statistics → health score and deadlines."""

    def __init__(self, window: int = 64):
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._task_rtts: Deque[float] = deque(maxlen=window)
        self.successes = 0
        self.failures = 0
        self.heartbeat_failures = 0
        self.hedge_wins = 0
        self.ewma_rtt_s: Optional[float] = None
        self.heartbeat_rtt_s: Optional[float] = None

    # ------------------------------------------------------------------
    def record_task(self, ok: bool, rtt_s: Optional[float] = None) -> None:
        self._outcomes.append(ok)
        if ok:
            self.successes += 1
        else:
            self.failures += 1
        if ok and rtt_s is not None:
            self._task_rtts.append(rtt_s)
            if self.ewma_rtt_s is None:
                self.ewma_rtt_s = rtt_s
            else:
                self.ewma_rtt_s = 0.8 * self.ewma_rtt_s + 0.2 * rtt_s

    def record_heartbeat(self, ok: bool, rtt_s: Optional[float] = None) -> None:
        if not ok:
            self.heartbeat_failures += 1
            self._outcomes.append(False)
            return
        if rtt_s is not None:
            if self.heartbeat_rtt_s is None:
                self.heartbeat_rtt_s = rtt_s
            else:
                self.heartbeat_rtt_s = 0.8 * self.heartbeat_rtt_s + 0.2 * rtt_s

    # ------------------------------------------------------------------
    def success_ratio(self) -> float:
        if not self._outcomes:
            return 1.0
        return sum(self._outcomes) / len(self._outcomes)

    def rtt_p95(self) -> Optional[float]:
        if len(self._task_rtts) < MIN_RTT_SAMPLES:
            return None
        return float(np.percentile(np.array(self._task_rtts), 95))

    def score(self) -> float:
        """Health in ``[0, 1]``: recent success ratio, discounted by RTT.

        The RTT term compares this worker's smoothed task RTT against
        its own heartbeat floor — a worker whose tasks take much longer
        than its network round-trip is loaded or sick, not just distant.
        """
        score = self.success_ratio()
        if self.ewma_rtt_s is not None and self.heartbeat_rtt_s is not None:
            floor = max(self.heartbeat_rtt_s, 1e-6)
            slowdown = self.ewma_rtt_s / max(self.ewma_rtt_s, floor * 50.0)
            score *= 1.0 - 0.25 * slowdown
        return max(0.0, min(1.0, score))

    def deadline(
        self, static_timeout_s: float, floor_s: float, adaptive: bool
    ) -> float:
        """Per-task deadline: EWMA/p95-derived, clamped to [floor, static].

        Until :data:`MIN_RTT_SAMPLES` RTTs exist the static timeout
        applies unchanged; the adaptive value can only *tighten* it —
        the configured ``task_timeout_s`` stays the hard ceiling.
        """
        if not adaptive:
            return static_timeout_s
        p95 = self.rtt_p95()
        if p95 is None or self.ewma_rtt_s is None:
            return static_timeout_s
        derived = max(4.0 * self.ewma_rtt_s, 2.5 * p95)
        return max(min(derived, static_timeout_s), min(floor_s, static_timeout_s))

    def hedge_threshold(self, configured_s: float) -> Optional[float]:
        """Seconds a task may run before hedging; ``None`` = never hedge.

        ``configured_s > 0`` wins outright; ``0`` means adaptive, which
        needs :data:`MIN_RTT_SAMPLES` observed RTTs first.
        """
        if configured_s > 0:
            return configured_s
        p95 = self.rtt_p95()
        if p95 is None:
            return None
        return max(3.0 * p95, 0.2)


class RetryBackoff:
    """Full-jitter exponential backoff from a dedicated RNG stream."""

    def __init__(self, base_s: float, cap_s: float, seed: int = 0):
        if base_s < 0 or cap_s < 0:
            raise ValueError("backoff base/cap must be >= 0")
        self.base_s = base_s
        self.cap_s = max(base_s, cap_s)
        #: private stream — never the model/search RNG
        self._rng = np.random.default_rng((seed & 0xFFFFFFFF, 0xB0FF))

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): U(0, min(cap, base·2^(a−1)))."""
        if attempt < 1 or self.base_s == 0:
            return 0.0
        ceiling = min(self.cap_s, self.base_s * (2.0 ** (attempt - 1)))
        return float(self._rng.uniform(0.0, ceiling))

    def max_total_delay(self, max_retries: int) -> float:
        """Worst-case summed backoff across a task's retries (the bound
        documented in docs/API.md)."""
        return sum(
            min(self.cap_s, self.base_s * (2.0 ** (a - 1)))
            for a in range(1, max_retries + 1)
        )
