"""Distributed tracing: cross-process trace propagation for local steps.

The server-side telemetry spans (:meth:`Telemetry.span`) only see the
coordinating process; with the process or socket backends the
interesting time — the participant's local step — happens in a worker
that has no telemetry handle at all.  This module closes that gap:

* every dispatched :class:`~repro.federated.participant.LocalStepTask`
  carries a :class:`TraceContext` (``trace_id``, the server's parent
  span id, and the dispatch timestamp on the server timeline);
* workers run the step under a :class:`SpanRecorder` — a dependency-free
  phase timer that records spans *relative to its own start* (workers
  never need a synchronised clock), optionally with per-op
  :mod:`repro.nn` profiling (:class:`OpProfiler`, keyed by op name and
  input shape);
* the finished span payload rides back piggybacked on the
  :class:`~repro.federated.participant.ParticipantUpdate`;
* the backend (which holds the server telemetry handle and bracketed
  the task with dispatch/receive timestamps) merges the worker spans
  onto the server timeline with clock-offset correction
  (:func:`merge_task_spans`) and emits one ``trace.task`` event per
  traced task — the raw material for ``repro trace`` and its Chrome
  export.

Clock-offset model
------------------
Workers report spans relative to the recorder's start, plus the total
busy time.  The server knows when it sent the task (``dispatch_ts``)
and when the reply landed (``receive_ts``), both on its own timeline.
The non-compute remainder ``wire = (receive - dispatch) - busy`` is the
round-trip wire/queue time; assuming a symmetric path (the NTP
assumption), half of it precedes the step, so worker-relative time
``x`` maps to server time ``dispatch_ts + wire/2 + x``.  The correction
is exact for symmetric links and bounded by ``wire`` in the worst case
— and it never affects results: tracing is observation only.

Determinism contract: nothing in this module reads or advances any RNG,
and a traced step computes bit-identical updates — the recorder only
ever calls ``time.perf_counter``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "SpanRecorder",
    "OpProfiler",
    "merge_task_spans",
    "emit_task_trace",
]


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """What a task carries so its worker spans can join the run's trace.

    ``dispatch_ts`` is informational (the server timeline moment the
    task was built); the *authoritative* dispatch/receive bracket is
    taken by the backend around the actual send, on the same clock.
    """

    trace_id: str
    parent_span_id: int
    dispatch_ts: float
    profile_ops: bool = False

    def to_wire(self) -> Dict:
        """Compact JSON-able form for the socket codec's task meta."""
        wire: Dict = {
            "id": self.trace_id,
            "parent": self.parent_span_id,
            "ts": round(self.dispatch_ts, 6),
        }
        if self.profile_ops:
            wire["ops"] = 1
        return wire

    @staticmethod
    def from_wire(wire: Dict) -> "TraceContext":
        return TraceContext(
            trace_id=str(wire["id"]),
            parent_span_id=int(wire["parent"]),
            dispatch_ts=float(wire["ts"]),
            profile_ops=bool(wire.get("ops", 0)),
        )


class OpProfiler:
    """Per-op forward timing via the :mod:`repro.nn` forward hook.

    Aggregates inclusive forward wall time keyed by ``(op name, input
    shape)``; nested module calls each count toward their own key, so a
    container's time includes its children's (read the table as an
    inclusive profile).  Install/uninstall nest correctly — the previous
    hook is restored.
    """

    def __init__(self):
        #: (op class name, shape string) -> [count, total seconds]
        self.stats: Dict[Tuple[str, str], List] = {}
        self._prev = None
        self._installed = False

    def _hook(self, module, args, duration: float) -> None:
        shape = getattr(args[0], "shape", None) if args else None
        key = (
            type(module).__name__,
            "x".join(str(d) for d in shape) if shape is not None else "?",
        )
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration

    def install(self) -> None:
        from repro.nn.modules import set_forward_hook

        self._prev = set_forward_hook(self._hook)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        from repro.nn.modules import set_forward_hook

        set_forward_hook(self._prev)
        self._prev = None
        self._installed = False

    def rows(self) -> List[List]:
        """``[op, shape, count, total_s]`` rows, slowest first."""
        return [
            [op, shape, count, round(total, 6)]
            for (op, shape), (count, total) in sorted(
                self.stats.items(), key=lambda item: item[1][1], reverse=True
            )
        ]


class SpanRecorder:
    """Worker-side phase timer: flat spans relative to recorder start.

    Used around one local step.  ``payload()`` produces the JSON-able
    span tree that ships back on the update::

        {"total_s": ..., "spans": [[name, start_s, dur_s], ...],
         "ops": [[op, shape, count, total_s], ...]}   # only if profiling

    ``abort()`` discards the recording but still uninstalls the op hook
    — callers must reach one of ``payload()``/``abort()`` on every path
    (the hook is process-global in the worker).
    """

    def __init__(self, profile_ops: bool = False):
        self._t0 = time.perf_counter()
        self.spans: List[List] = []
        self.profiler: Optional[OpProfiler] = None
        if profile_ops:
            self.profiler = OpProfiler()
            self.profiler.install()

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter() - self._t0
        try:
            yield self
        finally:
            duration = (time.perf_counter() - self._t0) - start
            self.spans.append([name, round(start, 6), round(duration, 6)])

    def payload(self) -> Dict:
        """Finish recording; uninstalls the op hook."""
        total = time.perf_counter() - self._t0
        if self.profiler is not None:
            self.profiler.uninstall()
        payload: Dict = {"total_s": round(total, 6), "spans": self.spans}
        if self.profiler is not None:
            payload["ops"] = self.profiler.rows()
        return payload

    def abort(self) -> None:
        """Discard the recording (failed step); uninstalls the op hook."""
        if self.profiler is not None:
            self.profiler.uninstall()
        self.spans = []


def null_span(name: str):
    """Span shim for untraced paths (``recorder or None`` call sites)."""
    return contextlib.nullcontext()


def merge_task_spans(
    payload: Dict, dispatch_ts: float, receive_ts: float
) -> Dict:
    """Map a worker span payload onto the server timeline.

    Implements the clock-offset model from the module docstring:
    ``offset = dispatch_ts + ((receive - dispatch) - busy) / 2``.  The
    offset is clamped so spans never start before their dispatch — a
    worker busier than its bracket (clock jitter) degrades gracefully.
    """
    busy = float(payload.get("total_s", 0.0))
    rtt = max(0.0, float(receive_ts) - float(dispatch_ts))
    wire = max(0.0, rtt - busy)
    offset = float(dispatch_ts) + wire / 2.0
    spans = [
        [name, round(offset + start, 6), dur]
        for name, start, dur in payload.get("spans", [])
    ]
    return {"spans": spans, "busy_s": busy, "wire_s": wire, "offset": offset}


def emit_task_trace(
    telemetry,
    *,
    backend: str,
    task,
    update,
    dispatch_ts: float,
    receive_ts: float,
    worker: str,
) -> None:
    """Emit the ``trace.task`` event that merges one worker span tree
    into the server's round timeline.

    No-op unless the update actually carries spans and telemetry is
    live, so untraced paths pay one attribute read.  Callers in threaded
    backends must hold their telemetry lock.
    """
    payload = getattr(update, "spans", None)
    if payload is None or not telemetry.enabled:
        return
    merged = merge_task_spans(payload, dispatch_ts, receive_ts)
    trace = getattr(task, "trace", None)
    fields: Dict = {
        "backend": backend,
        "round": task.round_index,
        "participant": task.participant_id,
        "worker": worker,
        "dispatch_ts": round(dispatch_ts, 6),
        "receive_ts": round(receive_ts, 6),
        "busy_s": round(merged["busy_s"], 6),
        "wire_s": round(merged["wire_s"], 6),
        "spans": merged["spans"],
    }
    if trace is not None:
        fields["trace_id"] = trace.trace_id
        fields["parent_span_id"] = trace.parent_span_id
    ops = payload.get("ops")
    if ops:
        fields["ops"] = ops
    telemetry.emit("trace.task", **fields)
