"""The :class:`Telemetry` handle threaded through the pipeline.

One object owns the event log (sequence numbers + timestamps + sink),
the metrics registry, and the span stack.  Every producer in the stack
(`FederatedSearchServer`, `Participant`, the phase runners) receives the
same handle; a disabled handle turns every call into an early-return
no-op so instrumentation can stay inline on hot paths.

Nothing in this module reads or advances an RNG — instrumentation must
never perturb seeded results.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .sinks import EventSink, JsonlFileSink, MemorySink, NullSink, TeeSink

__all__ = ["Telemetry", "build_telemetry"]


class Telemetry:
    """Event log + metrics registry + span timers behind one handle.

    Parameters
    ----------
    sink:
        Where events go (default: in-memory ring buffer).
    enabled:
        When ``False`` every ``emit``/``span``/metric helper returns
        immediately without touching the clock or the sink.
    """

    def __init__(self, sink: Optional[EventSink] = None, enabled: bool = True):
        self.enabled = enabled
        self.sink: EventSink = sink if sink is not None else MemorySink()
        self.metrics = MetricsRegistry()
        #: distributed tracing (see :mod:`repro.telemetry.tracing`):
        #: when True the server attaches a trace context to every
        #: dispatched task and backends merge the worker span trees it
        #: earns back into this timeline.  Requires ``enabled``.
        self.tracing = False
        #: opt-in per-op ``repro.nn`` profiling inside traced local steps
        self.trace_ops = False
        #: run-scoped trace identifier carried by every trace context
        self.trace_id = f"{os.getpid():x}-{int(time.time() * 1e6) & 0xFFFFFFFF:08x}"
        self._seq = 0
        self._span_id = 0
        self._t0 = time.perf_counter()
        self._span_stack: List[Tuple[str, int]] = []

    @staticmethod
    def disabled() -> "Telemetry":
        """A no-op handle: null sink, emits and spans cost ~nothing."""
        return Telemetry(sink=NullSink(), enabled=False)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Record one structured event (stamped with ``seq`` and ``ts``)."""
        if not self.enabled:
            return
        self._seq += 1
        record: Dict = {
            "seq": self._seq,
            "ts": round(time.perf_counter() - self._t0, 6),
            "event": event,
        }
        record.update(fields)
        self.sink.emit(record)

    def now(self) -> float:
        """Seconds on this handle's event timeline (same clock as ``ts``).

        Backends use it to bracket task dispatch/receive so worker span
        trees can be clock-offset-corrected onto the server timeline.
        """
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **fields):
        """Time a block of work: ``with telemetry.span("search.round"):``.

        Emits ``span_start``/``span_end`` events (each carrying a
        process-unique ``span_id``), records the wall-clock duration into
        the ``span.<name>`` histogram, and restores the span stack even
        when the block raises (the ``span_end`` event then carries
        ``"error": True``).
        """
        if not self.enabled:
            yield None
            return
        depth = len(self._span_stack)
        self._span_id += 1
        span_id = self._span_id
        self._span_stack.append((name, span_id))
        self.emit("span_start", span=name, span_id=span_id, depth=depth, **fields)
        start = time.perf_counter()
        error = False
        try:
            yield self
        except BaseException:
            error = True
            raise
        finally:
            duration = time.perf_counter() - start
            self._span_stack.pop()
            self.metrics.histogram(f"span.{name}").observe(duration)
            end_fields = dict(
                span=name,
                span_id=span_id,
                depth=depth,
                duration_s=round(duration, 6),
            )
            if error:
                end_fields["error"] = True
            self.emit("span_end", **end_fields)

    @property
    def current_span(self) -> Optional[str]:
        return self._span_stack[-1][0] if self._span_stack else None

    @property
    def current_span_id(self) -> int:
        """ID of the innermost open span (0 when none is open)."""
        return self._span_stack[-1][1] if self._span_stack else 0

    # ------------------------------------------------------------------
    # Metric shorthands (cheap early-outs when disabled)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Lifecycle / export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Dict[str, float]]:
        return self.metrics.snapshot()

    def events(self) -> List[Dict]:
        """Buffered events, when the sink keeps any (MemorySink/Tee)."""
        sinks = self.sink.sinks if isinstance(self.sink, TeeSink) else [self.sink]
        for sink in sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return []

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


def build_telemetry(config) -> Telemetry:
    """Build the handle an :class:`~repro.core.ExperimentConfig` asks for.

    Default: enabled with an in-memory ring buffer.  Setting
    ``telemetry_log_path`` adds a JSONL file sink (truncating any
    existing file so one path is one run); ``telemetry_enabled=False``
    yields the no-op handle.  ``tracing_enabled``/``trace_ops`` switch on
    distributed tracing (and per-op profiling) for the run; tracing
    requires telemetry, so a disabled handle ignores both.
    """
    if not getattr(config, "telemetry_enabled", True):
        return Telemetry.disabled()
    sinks: List[EventSink] = [MemorySink()]
    log_path = getattr(config, "telemetry_log_path", None)
    if log_path:
        open(log_path, "w", encoding="utf-8").close()
        sinks.append(JsonlFileSink(log_path))
    sink = sinks[0] if len(sinks) == 1 else TeeSink(sinks)
    telemetry = Telemetry(sink=sink)
    telemetry.tracing = bool(getattr(config, "tracing_enabled", False))
    telemetry.trace_ops = telemetry.tracing and bool(
        getattr(config, "trace_ops", False)
    )
    return telemetry
