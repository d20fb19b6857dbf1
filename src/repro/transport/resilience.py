"""The per-worker circuit breaker, the one mechanism dispatch keeps on
top of soft synchronisation.

Pure bookkeeping, no sockets: the :class:`SocketBackend` consults one
:class:`CircuitBreaker` per worker when it dials the worker, claims a
task for it and settles an attempt's outcome.  It is the classic
three-state machine: ``closed`` dispatches freely;
:data:`BREAKER_FAILURES` *consecutive* failures trip it ``open``, which
rejects dispatch and gates redial and respawn until
:data:`BREAKER_COOLDOWN_S` has passed; then one ``half_open`` probe is
allowed through — success closes the breaker, failure re-opens it with
the cooldown doubled (capped at :data:`BREAKER_COOLDOWN_MAX_S`).

An external worker address that never answers costs a full connect
timeout on every redial; the breaker is what keeps later rounds from
paying it (EXPERIMENTS.md "Sizing: the dispatch mechanisms").  The
parameters are module constants, not options; tests patch them.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: consecutive failures (dials, heartbeats, tasks) that open a breaker
BREAKER_FAILURES = 3
#: first open period; each failed half-open probe doubles it
BREAKER_COOLDOWN_S = 2.0
BREAKER_COOLDOWN_MAX_S = 30.0


class CircuitBreaker:
    """closed → open on consecutive failures → half-open probe → closed.

    ``on_transition(old, new)`` fires on every state change so the
    backend can emit ``transport.breaker`` telemetry without this class
    importing telemetry.  A ``clock`` injection point keeps the state
    machine unit-testable without sleeping.
    """

    def __init__(
        self,
        on_transition: Optional[Callable[[str, str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._on_transition = on_transition
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._cooldown_s = BREAKER_COOLDOWN_S
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
            self._cooldown_s = BREAKER_COOLDOWN_S
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self._probe_in_flight = False
        self._consecutive_failures += 1
        if self._state == BREAKER_HALF_OPEN:
            self._cooldown_s = min(self._cooldown_s * 2.0, BREAKER_COOLDOWN_MAX_S)
            self._opened_at = self._clock()
            self._transition(BREAKER_OPEN)
        elif (
            self._state == BREAKER_CLOSED
            and self._consecutive_failures >= BREAKER_FAILURES
        ):
            self._opened_at = self._clock()
            self._transition(BREAKER_OPEN)
