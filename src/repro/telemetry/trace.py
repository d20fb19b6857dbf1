"""Run-log analysis behind ``python -m repro trace <run.jsonl>``.

Consumes the JSONL event stream a :class:`~repro.telemetry.JsonlFileSink`
wrote (or the in-memory event list) and answers the questions the paper's
evaluation revolves around: where did wall-clock time go per phase, how
stale were the updates (Fig. 8), which participants were the slow links
(Fig. 7), and what did each round contribute (Table V).  Runs executed
with ``--backend socket`` additionally get a wire-traffic section built
from the ``transport.round`` events the socket backend emits (bytes on
the wire per round, live worker counts, retries/losses).

The report is :data:`_SECTIONS`, one tuple in render order.  A section
names the events it consumes, reduces them to the summary value(s) under
its key(s), and renders its ``##`` block from the summary.
:func:`summarize_trace` is one pass that hands each event to every
section that named it; :func:`render_trace` is the header plus one loop
over the sections.
"""

from __future__ import annotations

import collections
import json
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["load_events", "summarize_trace", "render_trace", "export_chrome_trace"]


class _EventList(List[Dict]):
    """Events plus a count of the malformed lines dropped on load."""

    malformed_lines: int = 0


def load_events(path: str, strict: bool = False) -> List[Dict]:
    """Parse a JSONL run log; blank lines are skipped, order preserved.

    Malformed lines — the normal tail of a log whose writer was killed
    mid-line, or a partial flush — are *skipped* with a warning; the
    returned list carries the drop count as ``.malformed_lines`` and
    :func:`summarize_trace` surfaces it.  Pass ``strict=True`` to raise
    :class:`ValueError` on the first bad line instead.
    """
    events = _EventList()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: bad JSONL line: {exc}"
                    ) from exc
                events.malformed_lines += 1
                warnings.warn(
                    f"{path}:{lineno}: skipping malformed JSONL line ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: JSONL line is not an object"
                    )
                events.malformed_lines += 1
                warnings.warn(
                    f"{path}:{lineno}: skipping non-object JSONL line",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return events


#: One typed field copied out of an event: (key, cast, default); a cast
#: of None keeps the raw value.
_Field = Tuple[str, Optional[Callable[[Any], Any]], Any]


def _cast(cast, default, *keys: str) -> Tuple[_Field, ...]:
    return tuple((key, cast, default) for key in keys)


_ROUND: _Field = ("round", int, -1)


def _typed(event: Dict, fields: Sequence[_Field]) -> Dict:
    """Copy ``fields`` out of ``event``, cast, with defaults for gaps."""
    return {
        key: event.get(key, default) if cast is None else cast(event.get(key, default))
        for key, cast, default in fields
    }


def _table(headers: Sequence[str], rows: List[List], precision: int) -> str:
    # Imported here: repro.reporting pulls in the evaluation stack, which
    # the telemetry package must not load at import time.
    from repro.reporting import markdown_table

    return markdown_table(headers, rows, precision=precision)


def _round_table(
    rows: List[Dict], headers: Sequence[str], cells: Callable[[Dict], List],
    precision: int, max_round_rows: int,
) -> List[str]:
    """A per-round table: the first ``max_round_rows`` rows, then a
    ``... (k more rounds)`` line for the rest."""
    shown = rows[:max_round_rows]
    lines = [_table(headers, [cells(r) for r in shown], precision)]
    if len(rows) > len(shown):
        lines.append(f"... ({len(rows) - len(shown)} more rounds)")
    return lines


def _totals(rows: List[Dict], *keys: str) -> Dict[str, Any]:
    """``<key>_total`` → the column's sum over ``rows``, for each key."""
    return {f"{key}_total": sum(r[key] for r in rows) for key in keys}


def _bar(count: int, peak: int, width: int = 40) -> str:
    filled = int(round(width * count / peak)) if peak else 0
    return "#" * max(filled, 1 if count else 0)


class _Section:
    """One block of the trace report.

    :func:`summarize_trace` builds a fresh instance per call, calls
    ``add(name, event)`` for every event whose name is in :attr:`events`
    (in log order), then merges ``result()`` — summary key(s) → value(s)
    — into the summary.  The static ``render(summary, top,
    max_round_rows)`` returns the section's lines, heading first, or an
    empty list to leave the section out.
    """

    #: event names this section consumes
    events: Tuple[str, ...] = ()
    #: event name → the typed fields copied out of it (per-round tables)
    fields: Dict[str, Tuple[_Field, ...]] = {}


class _RoundTable(_Section):
    """A section with one typed row per event named in :attr:`fields`;
    any other event it consumes is only counted."""

    def __init__(self):
        self.rows: List[Dict] = []
        self.counts: Dict[str, int] = collections.Counter()

    def add(self, name: str, event: Dict) -> None:
        if name in self.fields:
            self.rows.append(_typed(event, self.fields[name]))
        else:
            self.counts[name] += 1


class _Phases(_Section):
    events = ("phase_end",)

    def __init__(self):
        self.phases: List[Dict] = []

    def add(self, name, event):
        wall = float(event.get("duration_s", 0.0))
        self.phases.append({"phase": event.get("phase", "?"), "wall_s": wall})

    def result(self):
        total = sum(p["wall_s"] for p in self.phases) or 1.0
        for p in self.phases:
            p["share"] = p["wall_s"] / total
        return {"phases": self.phases}

    @staticmethod
    def render(summary, top, max_round_rows):
        lines, phases = ["## Per-phase time breakdown"], summary["phases"]
        if not phases:
            return lines + ["(no phase_end events)"]
        rows = [[p["phase"], p["wall_s"], 100.0 * p["share"]] for p in phases]
        return lines + [_table(["phase", "wall_s", "share_%"], rows, 3)]


class _Staleness(_Section):
    events = ("arrival",)

    def __init__(self):
        self.staleness: Dict[int, int] = collections.Counter()
        self.outcomes: Dict[str, int] = collections.Counter()

    def add(self, name, event):
        self.staleness[int(event.get("staleness", 0))] += 1
        self.outcomes[event.get("outcome", "?")] += 1

    def result(self):
        return {
            "staleness": dict(sorted(self.staleness.items())),
            "outcomes": dict(sorted(self.outcomes.items())),
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        lines = ["## Staleness histogram (update arrivals)"]
        if not summary["staleness"]:
            return lines + ["(no arrival events)"]
        peak = max(summary["staleness"].values())
        for tau, count in summary["staleness"].items():
            lines.append(f"  tau={tau:<3d} {count:>6d} {_bar(count, peak)}")
        outcomes = ", ".join(f"{k}={n}" for k, n in summary["outcomes"].items())
        return lines + [f"  outcomes: {outcomes}"]


class _Participants(_Section):
    events = ("dispatch",)
    EMPTY = {"dispatches": 0, "bytes_total": 0.0, "latency_total_s": 0.0,
             "latency_max_s": 0.0}

    def __init__(self):
        self.entries: Dict[int, Dict] = {}

    def add(self, name, event):
        k = int(event.get("participant", -1))
        entry = self.entries.setdefault(k, {"participant": k, **self.EMPTY})
        entry["dispatches"] += 1
        entry["bytes_total"] += float(event.get("bytes", 0.0))
        latency = float(event.get("latency_s", 0.0))
        entry["latency_total_s"] += latency
        entry["latency_max_s"] = max(entry["latency_max_s"], latency)

    def result(self):
        for e in self.entries.values():
            e["latency_mean_s"] = e["latency_total_s"] / max(e["dispatches"], 1)
        rows = list(self.entries.values())
        rows.sort(key=lambda e: e["latency_mean_s"], reverse=True)
        return {"participants": rows}

    @staticmethod
    def render(summary, top, max_round_rows):
        lines = [f"## Slowest participants (top {top} by mean dispatch latency)"]
        if not summary["participants"]:
            return lines + ["(no dispatch events)"]
        headers = [
            "participant", "dispatches", "mean_latency_s", "max_latency_s", "kB_sent"
        ]
        rows = [
            [e["participant"], e["dispatches"], e["latency_mean_s"],
             e["latency_max_s"], e["bytes_total"] / 1e3]
            for e in summary["participants"][:top]
        ]
        return lines + [_table(headers, rows, 4)]


class _Rounds(_RoundTable):
    events = ("round_end",)
    fields = {
        "round_end": (
            _ROUND,
            ("phase", None, "?"),
            ("mean_reward", None, None),
            *_cast(int, 0, "num_fresh", "num_stale_used", "num_dropped", "num_offline"),
            *_cast(float, 0.0, "duration_s", "max_latency_s"),
        )
    }

    def result(self):
        return {"rounds": self.rows}

    @staticmethod
    def render(summary, top, max_round_rows):
        lines = ["## Per-round summary"]
        if not summary["rounds"]:
            return lines + ["(no round_end events)"]
        return lines + _round_table(
            summary["rounds"],
            ["round", "phase", "reward", "fresh", "stale", "dropped", "offline",
             "sim_s"],
            lambda r: [
                r["round"], r["phase"],
                float("nan") if r["mean_reward"] is None else r["mean_reward"],
                r["num_fresh"], r["num_stale_used"], r["num_dropped"],
                r["num_offline"], r["duration_s"],
            ],
            3, max_round_rows,
        )


class _Population(_RoundTable):
    events = ("population.round", "population.churn")
    fields = {
        "population.round": (
            _ROUND,
            ("cohort", int, 0),
            ("strategy", None, "?"),
            *_cast(int, 0, "registered", "active", "dormant", "departed"),
        )
    }
    CHURN = ("joined", "departed", "dropped_out", "reactivated")
    COLUMNS = ("round", "cohort", "registered", "active", "dormant", "departed")

    def __init__(self):
        super().__init__()
        self.churn = dict.fromkeys(self.CHURN, 0)

    def add(self, name, event):
        if name == "population.churn":
            for key in self.churn:
                self.churn[key] += int(event.get(key, 0))
        else:
            super().add(name, event)

    def result(self):
        if not self.rows:
            return {"population": None}
        first, last = self.rows[0], self.rows[-1]
        cohorts = [r["cohort"] for r in self.rows]
        return {
            "population": {
                "rounds": self.rows,
                "strategy": last["strategy"],
                "registered_first": first["registered"],
                **{f"{k}_last": last[k] for k in self.COLUMNS[2:]},
                "cohort_mean": sum(cohorts) / len(cohorts),
                "cohort_min": min(cohorts),
                "cohort_max": max(cohorts),
                "churn": dict(self.churn),
            }
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        population = summary.get("population")
        if not population:
            return []
        churn, columns = population["churn"], _Population.COLUMNS
        return [
            "## Population",
            f"  registered: {population['registered_first']} -> "
            f"{population['registered_last']}   "
            f"active: {population['active_last']}   "
            f"dormant: {population['dormant_last']}   "
            f"departed: {population['departed_last']}",
            f"  cohorts ({population['strategy']}): "
            f"mean {population['cohort_mean']:.1f}, "
            f"min {population['cohort_min']}, max {population['cohort_max']} "
            f"over {len(population['rounds'])} rounds",
            "  churn totals: "
            + "   ".join(f"{k}={churn[k]}" for k in _Population.CHURN),
            *_round_table(
                population["rounds"],
                columns, lambda r: [r[key] for key in columns],
                0, max_round_rows,
            ),
        ]


class _Transport(_RoundTable):
    events = (
        "transport.round", "executor.task_retry",
        "transport.worker_lost", "transport.worker_respawned",
    )
    fields = {
        "transport.round": (
            _ROUND,
            *_cast(int, 0, "workers_live", "tasks", "failed"),
            *_cast(float, 0.0, "bytes_sent", "bytes_received"),
        )
    }

    def result(self):
        rows = self.rows
        if not rows:
            return {"transport": None}
        return {
            "transport": {
                "rounds": rows,
                **_totals(rows, "bytes_sent", "bytes_received", "tasks", "failed"),
                "min_workers_live": min(r["workers_live"] for r in rows),
                "retries": self.counts["executor.task_retry"],
                "workers_lost": self.counts["transport.worker_lost"],
                "workers_respawned": self.counts["transport.worker_respawned"],
            }
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        transport = summary.get("transport")
        if not transport:
            return []
        return [
            "## Wire traffic (socket backend)",
            f"  sent: {transport['bytes_sent_total'] / 1e3:.1f} kB   "
            f"received: {transport['bytes_received_total'] / 1e3:.1f} kB   "
            f"tasks: {transport['tasks_total']}   "
            f"failed: {transport['failed_total']}",
            f"  retries: {transport['retries']}   "
            f"workers lost: {transport['workers_lost']}   "
            f"respawned: {transport['workers_respawned']}   "
            f"min live workers: {transport['min_workers_live']}",
            *_round_table(
                transport["rounds"],
                ["round", "workers", "tasks", "failed", "kB_sent", "kB_recv"],
                lambda r: [
                    r["round"], r["workers_live"], r["tasks"], r["failed"],
                    r["bytes_sent"] / 1e3, r["bytes_received"] / 1e3,
                ],
                1, max_round_rows,
            ),
        ]


class _Health(_Section):
    events = (
        "transport.health", "fault.network",
        "transport.breaker", "transport.heartbeat_failed",
    )
    WORKER_COLUMNS = ("worker", "state", "ok", "failed", "hb_fail")

    def __init__(self):
        self.latest: Dict[str, Dict] = {}
        self.faults: Dict[str, int] = collections.Counter()
        self.breakers: Dict[str, int] = collections.Counter()
        self.heartbeat_failures = 0

    def add(self, name, event):
        if name == "transport.health":
            # Per-round snapshot; the report shows each worker's latest.
            for worker in event.get("workers", []):
                if isinstance(worker, dict):
                    self.latest[str(worker.get("worker", "?"))] = dict(worker)
        elif name == "fault.network":
            self.faults[str(event.get("kind", "?"))] += 1
        elif name == "transport.breaker":
            self.breakers[str(event.get("worker", "?"))] += 1
        else:
            self.heartbeat_failures += 1

    def result(self):
        if not (self.latest or self.faults or self.breakers):
            return {"health": None}
        return {
            "health": {
                "workers": [self.latest[k] for k in sorted(self.latest)],
                "faults": dict(sorted(self.faults.items())),
                "breaker_transitions": dict(sorted(self.breakers.items())),
                "breaker_transitions_total": sum(self.breakers.values()),
                "heartbeat_failures": self.heartbeat_failures,
            }
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        health = summary.get("health")
        if not health:
            return []
        lines = ["## Worker health / chaos"]
        if health["faults"]:
            faults = ", ".join(f"{k}={n}" for k, n in health["faults"].items())
            lines.append(f"  injected wire faults: {faults}")
        lines.append(
            f"  breaker transitions: {health['breaker_transitions_total']}   "
            f"heartbeat failures: {health['heartbeat_failures']}"
        )
        if health["workers"]:
            rows = [_Health._worker_row(w) for w in health["workers"]]
            lines.append(_table(_Health.WORKER_COLUMNS, rows, 3))
        return lines

    @staticmethod
    def _worker_row(w: Dict) -> List:
        return [
            w.get("worker", "?"),
            w.get("state", "?"),
            *(int(w.get(k, 0)) for k in ("ok", "failed", "heartbeat_failures")),
        ]


class _Dispatch(_RoundTable):
    events = ("dispatch.round",)
    fields = {
        "dispatch.round": (
            _ROUND,
            ("backend", None, "?"),
            *_cast(int, 0, "tasks", "params_sent", "params_cached"),
            *_cast(int, 0, "full_syncs", "cache_misses"),
            ("cache_hit", float, 0.0),
        )
    }

    def result(self):
        rows = self.rows
        if not rows:
            return {"dispatch": None}
        totals = _totals(
            rows, "params_sent", "params_cached", "full_syncs", "cache_misses"
        )
        sent, cached = totals["params_sent_total"], totals["params_cached_total"]
        return {
            "dispatch": {
                "rounds": rows,
                "backend": rows[0]["backend"],
                **totals,
                "cache_hit": (cached / (sent + cached)) if sent + cached else 0.0,
            }
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        dispatch = summary.get("dispatch")
        if not dispatch:
            return []
        return [
            f"## Delta dispatch ({dispatch['backend']} backend)",
            f"  params sent: {dispatch['params_sent_total']}   "
            f"served from cache: {dispatch['params_cached_total']}   "
            f"cache hit: {100.0 * dispatch['cache_hit']:.1f}%",
            f"  full syncs: {dispatch['full_syncs_total']}   "
            f"cache misses (resyncs): {dispatch['cache_misses_total']}",
            *_round_table(
                dispatch["rounds"],
                ["round", "tasks", "sent", "cached", "full_syncs", "misses", "hit_%"],
                lambda r: [
                    r["round"], r["tasks"], r["params_sent"], r["params_cached"],
                    r["full_syncs"], r["cache_misses"], 100.0 * r["cache_hit"],
                ],
                1, max_round_rows,
            ),
        ]


class _CriticalPath(_Section):
    """Per traced round (a ``round_start``/``round_end`` bracket with
    ``trace.task`` events inside), the task that landed last and how
    the round's wall splits into wait / compute / wire / aggregate."""

    events = ("round_start", "trace.task", "round_end")
    fields = {
        "round_start": (_ROUND, ("phase", None, "?")),
        "trace.task": (
            *_cast(float, 0.0, "busy_s", "wire_s"),
            ("participant", int, -1),
            ("worker", str, "?"),
        ),
    }
    BLAME = ("wait", "compute", "wire", "aggregate")
    PARTS = tuple(f"{part}_s" for part in BLAME)

    def __init__(self):
        self.open: Dict = {}
        self.traced: List[Dict] = []

    def add(self, name, event):
        ts = event.get("ts")
        if name == "round_start":
            if isinstance(ts, (int, float)):
                self.open = _typed(event, self.fields["round_start"])
                self.open.update(start_ts=float(ts), tasks=[])
            return
        same_round = self.open and self.open["round"] == int(event.get("round", -1))
        if name == "trace.task":
            if same_round:
                self.open["tasks"].append(event)
            return
        if same_round and self.open["tasks"] and isinstance(ts, (int, float)):
            self.open["end_ts"] = float(ts)
            self.traced.append(self.open)
        self.open = {}

    def _row(self, occ: Dict) -> Dict:
        # The round's makespan ends with the last update to land; the
        # longest dispatch→compute→wire→aggregate chain runs through
        # that task.  Blame decomposes the wall exactly (up to clock
        # jitter where a worker reports busier than its bracket):
        # wall = wait-before-dispatch + compute + wire + aggregate.
        crit = max(occ["tasks"], key=lambda e: float(e.get("receive_ts", 0.0)))
        task = _typed(crit, self.fields["trace.task"])
        wait = float(crit.get("dispatch_ts", occ["start_ts"])) - occ["start_ts"]
        aggregate = occ["end_ts"] - float(crit.get("receive_ts", occ["end_ts"]))
        return {
            "round": occ["round"],
            "phase": occ["phase"],
            "wall_s": occ["end_ts"] - occ["start_ts"],
            "wait_s": max(0.0, wait),
            "compute_s": task["busy_s"],
            "wire_s": task["wire_s"],
            "aggregate_s": max(0.0, aggregate),
            "participant": task["participant"],
            "worker": task["worker"],
            "tasks": len(occ["tasks"]),
        }

    def result(self):
        if not self.traced:
            return {"critical_path": None}
        rows = [self._row(occ) for occ in self.traced]
        totals = {key: sum(r[key] for r in rows) for key in ("wall_s",) + self.PARTS}
        # Normalize blame over the decomposed total rather than the raw
        # wall: clamping and wire-precision rounding can leave the
        # components a few microseconds off the bracketed wall, and the
        # fractions should always sum to exactly 1.
        blame_wall = sum(totals[part] for part in self.PARTS) or totals["wall_s"] or 1.0
        blame = {part: totals[f"{part}_s"] / blame_wall for part in self.BLAME}
        return {"critical_path": {"rounds": rows, "totals": totals, "blame": blame}}

    @staticmethod
    def render(summary, top, max_round_rows):
        critical = summary.get("critical_path")
        if not critical:
            return []
        blame = critical["blame"]
        return [
            "## Critical path (per round)",
            "  blame: "
            + "   ".join(f"{b} {100.0 * blame[b]:.1f}%" for b in _CriticalPath.BLAME),
            *_round_table(
                critical["rounds"],
                ["round", "wall_s", *_CriticalPath.PARTS, "participant", "worker"],
                lambda r: [
                    r["round"], r["wall_s"], r["wait_s"], r["compute_s"],
                    r["wire_s"], r["aggregate_s"], r["participant"], r["worker"],
                ],
                4, max_round_rows,
            ),
        ]


class _Ops(_Section):
    """Per-op forward profile rows."""

    events = ("trace.task",)

    def __init__(self):
        self.totals: Dict[tuple, List] = {}

    def add(self, name, event):
        for op, shape, count, total in event.get("ops", []):
            entry = self.totals.setdefault((str(op), str(shape)), [0, 0.0])
            entry[0] += int(count)
            entry[1] += float(total)

    def result(self):
        if not self.totals:
            return {"ops": None}
        ranked = sorted(self.totals.items(), key=lambda item: item[1][1], reverse=True)
        return {
            "ops": [
                {"op": op, "shape": shape, "count": count, "total_s": total}
                for (op, shape), (count, total) in ranked
            ]
        }

    @staticmethod
    def render(summary, top, max_round_rows):
        ops = summary.get("ops")
        if not ops:
            return []
        rows = [[o["op"], o["shape"], o["count"], o["total_s"]] for o in ops[:top]]
        return [
            f"## Per-op forward profile (top {top} by total time)",
            _table(["op", "shape", "count", "total_s"], rows, 4),
        ]


#: The report, in render order.
_SECTIONS: Tuple[type, ...] = (
    _Phases, _Staleness, _Participants, _Rounds, _Population, _Transport,
    _Health, _Dispatch, _CriticalPath, _Ops,
)


def summarize_trace(events: Sequence[Dict]) -> Dict:
    """Reduce an event stream to the trace report's raw numbers: the
    header fields plus every section's summary value(s)."""
    sections = [cls() for cls in _SECTIONS]
    routes: Dict[str, List[_Section]] = collections.defaultdict(list)
    for section in sections:
        for name in section.events:
            routes[name].append(section)
    event_counts: Dict[str, int] = collections.Counter()
    timestamps: List[float] = []
    for event in events:
        name = event.get("event", "?")
        event_counts[name] += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            timestamps.append(float(ts))
        for section in routes.get(name, ()):
            section.add(name, event)

    summary = {
        "num_events": len(events),
        "malformed_lines": int(getattr(events, "malformed_lines", 0)),
        "wall_s": (max(timestamps) - min(timestamps)) if timestamps else 0.0,
    }
    for section in sections:
        summary.update(section.result())
    summary["simulated_s"] = sum(r["duration_s"] for r in summary["rounds"])
    summary["event_counts"] = dict(sorted(event_counts.items()))
    return summary


def render_trace(summary: Dict, top: int = 5, max_round_rows: int = 20) -> str:
    """Human-readable trace report: the header, then every section."""
    lines = [
        f"events: {summary['num_events']}   "
        f"wall time: {summary['wall_s']:.3f} s   "
        f"simulated time: {summary['simulated_s']:.3f} s"
    ]
    if summary.get("malformed_lines"):
        lines.append(
            f"warning: skipped {summary['malformed_lines']} malformed "
            "JSONL line(s) (truncated log tail?)"
        )
    for section in _SECTIONS:
        block = section.render(summary, top, max_round_rows)
        if block:
            lines += ["", *block]
    return "\n".join(lines)


def _metadata(pid: int, tid: int, name: str, label: str) -> Dict:
    return {"ph": "M", "name": name, "pid": pid, "tid": tid, "args": {"name": label}}


def _slice(name: str, pid: int, tid: int, start_s: float, dur_s: float) -> Dict:
    return {
        "ph": "X",
        "name": name,
        "pid": pid,
        "tid": tid,
        "ts": round(start_s * 1e6, 3),
        "dur": round(dur_s * 1e6, 3),
    }


def _task_slices(event: Dict, tid: int) -> List[Dict]:
    """One traced task: its dispatch→receive slice, then its phase spans."""
    dispatch_ts = float(event.get("dispatch_ts", 0.0))
    receive_ts = float(event.get("receive_ts", dispatch_ts))
    name = f"task r{event.get('round', '?')} p{event.get('participant', '?')}"
    task = _slice(name, 1, tid, dispatch_ts, max(0.0, receive_ts - dispatch_ts))
    task["args"] = {
        "busy_s": event.get("busy_s", 0.0),
        "wire_s": event.get("wire_s", 0.0),
        "trace_id": event.get("trace_id"),
        "parent_span_id": event.get("parent_span_id"),
    }
    spans = [
        _slice(str(name), 1, tid, float(start), float(duration))
        for name, start, duration in event.get("spans", [])
    ]
    return [task, *spans]


def export_chrome_trace(events: Sequence[Dict]) -> Dict:
    """Convert a run-log event stream to Chrome/Perfetto trace-event JSON.

    Load the result at ``chrome://tracing`` or https://ui.perfetto.dev.
    Layout: the server's telemetry spans form one track (pid 0), and
    every distinct worker seen in ``trace.task`` events gets its own
    thread track under a shared "workers" process (pid 1) — each traced
    task appears as a ``task r<round> p<participant>`` slice spanning
    dispatch→receive with its clock-corrected phase spans nested inside.
    All timestamps are microseconds on the server timeline.
    """
    trace_events: List[Dict] = [
        _metadata(0, 0, "process_name", "server"),
        _metadata(1, 0, "process_name", "workers"),
    ]
    worker_tids: Dict[str, int] = {}
    for event in events:
        name = event.get("event")
        if name == "span_end":
            duration = float(event.get("duration_s", 0.0))
            end_ts = float(event.get("ts", 0.0))
            span = _slice(
                str(event.get("span", "?")), 0, 0, end_ts - duration, duration
            )
            span["args"] = {"span_id": event.get("span_id", 0)}
            trace_events.append(span)
        elif name == "trace.task":
            worker = str(event.get("worker", "?"))
            if worker not in worker_tids:
                worker_tids[worker] = len(worker_tids) + 1
                trace_events.append(
                    _metadata(1, worker_tids[worker], "thread_name", f"worker {worker}")
                )
            trace_events.extend(_task_slices(event, worker_tids[worker]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
