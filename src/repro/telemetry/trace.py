"""Run-log analysis behind ``python -m repro trace <run.jsonl>``.

Consumes the JSONL event stream a :class:`~repro.telemetry.JsonlFileSink`
wrote (or the in-memory event list) and answers the questions the paper's
evaluation revolves around: where did wall-clock time go per phase, how
stale were the updates (Fig. 8), which participants were the slow links
(Fig. 7), and what did each round contribute (Table V).  Runs executed
with ``--backend socket`` additionally get a wire-traffic section built
from the ``transport.round`` events the socket backend emits (bytes on
the wire per round, live worker counts, retries/losses).
"""

from __future__ import annotations

import collections
import json
import warnings
from typing import Dict, Iterable, List, Sequence

__all__ = [
    "load_events",
    "summarize_trace",
    "render_trace",
    "export_chrome_trace",
]


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


def summarize_trace(events: Sequence[Dict]) -> Dict:
    """Reduce an event stream to the trace report's raw numbers."""
    phases: List[Dict] = []
    staleness: Dict[int, int] = collections.Counter()
    outcomes: Dict[str, int] = collections.Counter()
    participants: Dict[int, Dict] = {}
    rounds: List[Dict] = []
    event_counts: Dict[str, int] = collections.Counter()
    timestamps: List[float] = []
    transport_rounds: List[Dict] = []
    dispatch_rounds: List[Dict] = []
    open_round: Dict = {}
    traced_rounds: List[Dict] = []
    op_totals: Dict[tuple, List] = {}
    health_latest: Dict[str, Dict] = {}
    fault_kinds: Dict[str, int] = collections.Counter()
    breaker_transitions: Dict[str, int] = collections.Counter()
    hedge_totals = {"hedges": 0, "wins": 0, "duplicates": 0}
    population_rounds: List[Dict] = []
    churn_totals = {"joined": 0, "departed": 0, "dropped_out": 0, "reactivated": 0}
    #: per-task outcome counts, evictions, peak of what was retained
    tape_totals = collections.Counter()

    for event in events:
        name = event.get("event", "?")
        event_counts[name] += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            timestamps.append(float(ts))

        if name == "phase_end":
            phases.append(
                {
                    "phase": event.get("phase", "?"),
                    "wall_s": float(event.get("duration_s", 0.0)),
                }
            )
        elif name == "arrival":
            staleness[int(event.get("staleness", 0))] += 1
            outcomes[event.get("outcome", "?")] += 1
        elif name == "dispatch":
            k = int(event.get("participant", -1))
            entry = participants.setdefault(
                k,
                {
                    "participant": k,
                    "dispatches": 0,
                    "bytes_total": 0.0,
                    "latency_total_s": 0.0,
                    "latency_max_s": 0.0,
                },
            )
            entry["dispatches"] += 1
            entry["bytes_total"] += float(event.get("bytes", 0.0))
            latency = float(event.get("latency_s", 0.0))
            entry["latency_total_s"] += latency
            entry["latency_max_s"] = max(entry["latency_max_s"], latency)
        elif name == "round_start":
            if isinstance(ts, (int, float)):
                open_round = {
                    "round": int(event.get("round", -1)),
                    "phase": event.get("phase", "?"),
                    "start_ts": float(ts),
                    "tasks": [],
                }
        elif name == "trace.task":
            if open_round and open_round["round"] == int(event.get("round", -1)):
                open_round["tasks"].append(event)
            for op, shape, count, total in event.get("ops", []):
                entry = op_totals.setdefault((str(op), str(shape)), [0, 0.0])
                entry[0] += int(count)
                entry[1] += float(total)
            tape_meta = event.get("tape")
            if isinstance(tape_meta, dict):
                tape_totals[tape_meta.get("outcome")] += 1
                tape_totals["evicted"] += int(tape_meta.get("evicted", 0))
                for peak in ("retained_graphs", "retained_mb"):
                    tape_totals[peak] = max(
                        tape_totals[peak], tape_meta.get(peak, 0)
                    )
        elif name == "round_end":
            if (
                open_round
                and open_round["round"] == int(event.get("round", -1))
                and open_round["tasks"]
                and isinstance(ts, (int, float))
            ):
                open_round["end_ts"] = float(ts)
                traced_rounds.append(open_round)
            open_round = {}
            rounds.append(
                {
                    "round": int(event.get("round", -1)),
                    "phase": event.get("phase", "?"),
                    "mean_reward": event.get("mean_reward"),
                    "num_fresh": int(event.get("num_fresh", 0)),
                    "num_stale_used": int(event.get("num_stale_used", 0)),
                    "num_dropped": int(event.get("num_dropped", 0)),
                    "num_offline": int(event.get("num_offline", 0)),
                    "duration_s": float(event.get("duration_s", 0.0)),
                    "max_latency_s": float(event.get("max_latency_s", 0.0)),
                }
            )
        elif name == "transport.round":
            transport_rounds.append(
                {
                    "round": int(event.get("round", -1)),
                    "workers_live": int(event.get("workers_live", 0)),
                    "tasks": int(event.get("tasks", 0)),
                    "failed": int(event.get("failed", 0)),
                    "bytes_sent": float(event.get("bytes_sent", 0.0)),
                    "bytes_received": float(event.get("bytes_received", 0.0)),
                }
            )
        elif name == "transport.health":
            # Per-round snapshot; the report shows the latest state of
            # each worker plus hedge totals accumulated across rounds.
            hedge_totals["hedges"] += int(event.get("hedges", 0))
            hedge_totals["wins"] += int(event.get("hedge_wins", 0))
            hedge_totals["duplicates"] += int(event.get("hedge_duplicates", 0))
            for worker in event.get("workers", []):
                if isinstance(worker, dict):
                    health_latest[str(worker.get("worker", "?"))] = dict(worker)
        elif name == "fault.network":
            fault_kinds[str(event.get("kind", "?"))] += 1
        elif name == "transport.breaker":
            breaker_transitions[str(event.get("worker", "?"))] += 1
        elif name == "dispatch.round":
            dispatch_rounds.append(
                {
                    "round": int(event.get("round", -1)),
                    "backend": event.get("backend", "?"),
                    "tasks": int(event.get("tasks", 0)),
                    "params_sent": int(event.get("params_sent", 0)),
                    "params_cached": int(event.get("params_cached", 0)),
                    "full_syncs": int(event.get("full_syncs", 0)),
                    "cache_misses": int(event.get("cache_misses", 0)),
                    "cache_hit": float(event.get("cache_hit", 0.0)),
                }
            )
        elif name == "population.round":
            population_rounds.append(
                {
                    "round": int(event.get("round", -1)),
                    "cohort": int(event.get("cohort", 0)),
                    "strategy": event.get("strategy", "?"),
                    "registered": int(event.get("registered", 0)),
                    "active": int(event.get("active", 0)),
                    "dormant": int(event.get("dormant", 0)),
                    "departed": int(event.get("departed", 0)),
                }
            )
        elif name == "population.churn":
            for key in churn_totals:
                churn_totals[key] += int(event.get(key, 0))

    total_phase_wall = sum(p["wall_s"] for p in phases) or 1.0
    for p in phases:
        p["share"] = p["wall_s"] / total_phase_wall
    participant_rows = sorted(
        participants.values(),
        key=lambda e: e["latency_total_s"] / max(e["dispatches"], 1),
        reverse=True,
    )
    for entry in participant_rows:
        entry["latency_mean_s"] = entry["latency_total_s"] / max(entry["dispatches"], 1)

    transport = None
    if transport_rounds:
        transport = {
            "rounds": transport_rounds,
            "bytes_sent_total": sum(r["bytes_sent"] for r in transport_rounds),
            "bytes_received_total": sum(
                r["bytes_received"] for r in transport_rounds
            ),
            "tasks_total": sum(r["tasks"] for r in transport_rounds),
            "failed_total": sum(r["failed"] for r in transport_rounds),
            "min_workers_live": min(r["workers_live"] for r in transport_rounds),
            "retries": event_counts.get("executor.task_retry", 0),
            "workers_lost": event_counts.get("transport.worker_lost", 0),
            "workers_respawned": event_counts.get(
                "transport.worker_respawned", 0
            ),
        }

    dispatch = None
    if dispatch_rounds:
        sent_total = sum(r["params_sent"] for r in dispatch_rounds)
        cached_total = sum(r["params_cached"] for r in dispatch_rounds)
        total = sent_total + cached_total
        dispatch = {
            "rounds": dispatch_rounds,
            "backend": dispatch_rounds[0]["backend"],
            "params_sent_total": sent_total,
            "params_cached_total": cached_total,
            "full_syncs_total": sum(r["full_syncs"] for r in dispatch_rounds),
            "cache_misses_total": sum(
                r["cache_misses"] for r in dispatch_rounds
            ),
            "cache_hit": (cached_total / total) if total else 0.0,
        }

    critical_path = None
    if traced_rounds:
        crit_rows = []
        for occ in traced_rounds:
            # The round's makespan ends with the last update to land; the
            # longest dispatch→compute→wire→aggregate chain runs through
            # that task.  Blame decomposes the wall exactly (up to clock
            # jitter where a worker reports busier than its bracket):
            # wall = wait-before-dispatch + compute + wire + aggregate.
            crit = max(occ["tasks"], key=lambda e: float(e.get("receive_ts", 0.0)))
            wall = occ["end_ts"] - occ["start_ts"]
            wait = float(crit.get("dispatch_ts", occ["start_ts"])) - occ["start_ts"]
            compute = float(crit.get("busy_s", 0.0))
            wire = float(crit.get("wire_s", 0.0))
            aggregate = occ["end_ts"] - float(crit.get("receive_ts", occ["end_ts"]))
            crit_rows.append(
                {
                    "round": occ["round"],
                    "phase": occ["phase"],
                    "wall_s": wall,
                    "wait_s": max(0.0, wait),
                    "compute_s": compute,
                    "wire_s": wire,
                    "aggregate_s": max(0.0, aggregate),
                    "participant": int(crit.get("participant", -1)),
                    "worker": str(crit.get("worker", "?")),
                    "tasks": len(occ["tasks"]),
                }
            )
        totals = {
            key: sum(r[key] for r in crit_rows)
            for key in ("wall_s", "wait_s", "compute_s", "wire_s", "aggregate_s")
        }
        # Normalize blame over the decomposed total rather than the raw
        # wall: clamping and wire-precision rounding can leave the
        # components a few microseconds off the bracketed wall, and the
        # fractions should always sum to exactly 1.
        blame_wall = (
            totals["wait_s"] + totals["compute_s"]
            + totals["wire_s"] + totals["aggregate_s"]
        ) or totals["wall_s"] or 1.0
        critical_path = {
            "rounds": crit_rows,
            "totals": totals,
            "blame": {
                "wait": totals["wait_s"] / blame_wall,
                "compute": totals["compute_s"] / blame_wall,
                "wire": totals["wire_s"] / blame_wall,
                "aggregate": totals["aggregate_s"] / blame_wall,
            },
        }

    health = None
    if health_latest or fault_kinds or breaker_transitions:
        health = {
            "workers": [health_latest[k] for k in sorted(health_latest)],
            "faults": dict(sorted(fault_kinds.items())),
            "breaker_transitions": dict(sorted(breaker_transitions.items())),
            "breaker_transitions_total": sum(breaker_transitions.values()),
            "hedges": hedge_totals["hedges"],
            "hedge_wins": hedge_totals["wins"],
            "hedge_duplicates": hedge_totals["duplicates"],
            "heartbeat_failures": event_counts.get(
                "transport.heartbeat_failed", 0
            ),
        }

    population = None
    if population_rounds:
        first, last = population_rounds[0], population_rounds[-1]
        cohorts = [r["cohort"] for r in population_rounds]
        population = {
            "rounds": population_rounds,
            "strategy": last["strategy"],
            "registered_first": first["registered"],
            "registered_last": last["registered"],
            "active_last": last["active"],
            "dormant_last": last["dormant"],
            "departed_last": last["departed"],
            "cohort_mean": sum(cohorts) / len(cohorts),
            "cohort_min": min(cohorts),
            "cohort_max": max(cohorts),
            "churn": dict(churn_totals),
        }

    tape = None
    step_kinds = ("first_sighting", "admitted", "replayed", "fallback")
    tape_tasks = sum(tape_totals[k] for k in step_kinds)
    if tape_tasks:
        tape = {
            k: tape_totals[k]
            for k in step_kinds + ("evicted", "retained_graphs", "retained_mb")
        }
        tape["tasks"] = tape_tasks
        tape["hit_rate"] = tape_totals["replayed"] / tape_tasks

    ops = None
    if op_totals:
        ops = [
            {"op": op, "shape": shape, "count": count, "total_s": total}
            for (op, shape), (count, total) in sorted(
                op_totals.items(), key=lambda item: item[1][1], reverse=True
            )
        ]

    return {
        "num_events": len(events),
        "malformed_lines": int(getattr(events, "malformed_lines", 0)),
        "wall_s": (max(timestamps) - min(timestamps)) if timestamps else 0.0,
        "simulated_s": sum(r["duration_s"] for r in rounds),
        "phases": phases,
        "staleness": dict(sorted(staleness.items())),
        "outcomes": dict(sorted(outcomes.items())),
        "participants": participant_rows,
        "rounds": rounds,
        "transport": transport,
        "health": health,
        "dispatch": dispatch,
        "population": population,
        "critical_path": critical_path,
        "ops": ops,
        "tape": tape,
        "event_counts": dict(sorted(event_counts.items())),
    }


def _bar(count: int, peak: int, width: int = 40) -> str:
    filled = int(round(width * count / peak)) if peak else 0
    return "#" * max(filled, 1 if count else 0)


def render_trace(summary: Dict, top: int = 5, max_round_rows: int = 20) -> str:
    """Human-readable trace report (per-phase, staleness, per-round)."""
    from repro.reporting import markdown_table

    lines: List[str] = []
    lines.append(
        f"events: {summary['num_events']}   "
        f"wall time: {summary['wall_s']:.3f} s   "
        f"simulated time: {summary['simulated_s']:.3f} s"
    )
    if summary.get("malformed_lines"):
        lines.append(
            f"warning: skipped {summary['malformed_lines']} malformed "
            "JSONL line(s) (truncated log tail?)"
        )

    lines.append("")
    lines.append("## Per-phase time breakdown")
    if summary["phases"]:
        lines.append(
            markdown_table(
                ["phase", "wall_s", "share_%"],
                [
                    [p["phase"], p["wall_s"], 100.0 * p["share"]]
                    for p in summary["phases"]
                ],
                precision=3,
            )
        )
    else:
        lines.append("(no phase_end events)")

    lines.append("")
    lines.append("## Staleness histogram (update arrivals)")
    if summary["staleness"]:
        peak = max(summary["staleness"].values())
        for tau, count in summary["staleness"].items():
            lines.append(f"  tau={tau:<3d} {count:>6d} {_bar(count, peak)}")
        outcome_text = ", ".join(
            f"{name}={count}" for name, count in summary["outcomes"].items()
        )
        lines.append(f"  outcomes: {outcome_text}")
    else:
        lines.append("(no arrival events)")

    lines.append("")
    lines.append(f"## Slowest participants (top {top} by mean dispatch latency)")
    if summary["participants"]:
        lines.append(
            markdown_table(
                ["participant", "dispatches", "mean_latency_s", "max_latency_s", "kB_sent"],
                [
                    [
                        e["participant"],
                        e["dispatches"],
                        e["latency_mean_s"],
                        e["latency_max_s"],
                        e["bytes_total"] / 1e3,
                    ]
                    for e in summary["participants"][:top]
                ],
                precision=4,
            )
        )
    else:
        lines.append("(no dispatch events)")

    lines.append("")
    lines.append("## Per-round summary")
    rounds = summary["rounds"]
    if rounds:
        shown = rounds[:max_round_rows]
        lines.append(
            markdown_table(
                ["round", "phase", "reward", "fresh", "stale", "dropped", "offline", "sim_s"],
                [
                    [
                        r["round"],
                        r["phase"],
                        float("nan") if r["mean_reward"] is None else r["mean_reward"],
                        r["num_fresh"],
                        r["num_stale_used"],
                        r["num_dropped"],
                        r["num_offline"],
                        r["duration_s"],
                    ]
                    for r in shown
                ],
                precision=3,
            )
        )
        if len(rounds) > len(shown):
            lines.append(f"... ({len(rounds) - len(shown)} more rounds)")
    else:
        lines.append("(no round_end events)")

    population = summary.get("population")
    if population:
        lines.append("")
        lines.append("## Population")
        churn = population["churn"]
        lines.append(
            f"  registered: {population['registered_first']} -> "
            f"{population['registered_last']}   "
            f"active: {population['active_last']}   "
            f"dormant: {population['dormant_last']}   "
            f"departed: {population['departed_last']}"
        )
        lines.append(
            f"  cohorts ({population['strategy']}): "
            f"mean {population['cohort_mean']:.1f}, "
            f"min {population['cohort_min']}, max {population['cohort_max']} "
            f"over {len(population['rounds'])} rounds"
        )
        lines.append(
            f"  churn totals: joined={churn['joined']}   "
            f"departed={churn['departed']}   "
            f"dropped_out={churn['dropped_out']}   "
            f"reactivated={churn['reactivated']}"
        )
        shown = population["rounds"][:max_round_rows]
        lines.append(
            markdown_table(
                ["round", "cohort", "registered", "active", "dormant", "departed"],
                [
                    [
                        r["round"],
                        r["cohort"],
                        r["registered"],
                        r["active"],
                        r["dormant"],
                        r["departed"],
                    ]
                    for r in shown
                ],
                precision=0,
            )
        )
        if len(population["rounds"]) > len(shown):
            lines.append(
                f"... ({len(population['rounds']) - len(shown)} more rounds)"
            )

    transport = summary.get("transport")
    if transport:
        lines.append("")
        lines.append("## Wire traffic (socket backend)")
        lines.append(
            f"  sent: {transport['bytes_sent_total'] / 1e3:.1f} kB   "
            f"received: {transport['bytes_received_total'] / 1e3:.1f} kB   "
            f"tasks: {transport['tasks_total']}   "
            f"failed: {transport['failed_total']}"
        )
        lines.append(
            f"  retries: {transport['retries']}   "
            f"workers lost: {transport['workers_lost']}   "
            f"respawned: {transport['workers_respawned']}   "
            f"min live workers: {transport['min_workers_live']}"
        )
        shown = transport["rounds"][:max_round_rows]
        lines.append(
            markdown_table(
                ["round", "workers", "tasks", "failed", "kB_sent", "kB_recv"],
                [
                    [
                        r["round"],
                        r["workers_live"],
                        r["tasks"],
                        r["failed"],
                        r["bytes_sent"] / 1e3,
                        r["bytes_received"] / 1e3,
                    ]
                    for r in shown
                ],
                precision=1,
            )
        )
        if len(transport["rounds"]) > len(shown):
            lines.append(
                f"... ({len(transport['rounds']) - len(shown)} more rounds)"
            )

    health = summary.get("health")
    if health:
        lines.append("")
        lines.append("## Worker health / chaos")
        if health["faults"]:
            fault_text = ", ".join(
                f"{kind}={count}" for kind, count in health["faults"].items()
            )
            lines.append(f"  injected wire faults: {fault_text}")
        lines.append(
            f"  breaker transitions: {health['breaker_transitions_total']}   "
            f"hedges: {health['hedges']}   "
            f"hedge wins: {health['hedge_wins']}   "
            f"duplicates discarded: {health['hedge_duplicates']}   "
            f"heartbeat failures: {health['heartbeat_failures']}"
        )
        if health["workers"]:
            lines.append(
                markdown_table(
                    [
                        "worker",
                        "state",
                        "score",
                        "ewma_rtt_ms",
                        "deadline_s",
                        "ok",
                        "failed",
                        "hb_fail",
                        "hedge_wins",
                    ],
                    [
                        [
                            w.get("worker", "?"),
                            w.get("state", "?"),
                            float(w.get("score", 0.0)),
                            (
                                float("nan")
                                if w.get("ewma_rtt_ms") is None
                                else float(w["ewma_rtt_ms"])
                            ),
                            float(w.get("deadline_s", 0.0)),
                            int(w.get("ok", 0)),
                            int(w.get("failed", 0)),
                            int(w.get("heartbeat_failures", 0)),
                            int(w.get("hedge_wins", 0)),
                        ]
                        for w in health["workers"]
                    ],
                    precision=3,
                )
            )

    dispatch = summary.get("dispatch")
    if dispatch:
        lines.append("")
        lines.append(f"## Delta dispatch ({dispatch['backend']} backend)")
        lines.append(
            f"  params sent: {dispatch['params_sent_total']}   "
            f"served from cache: {dispatch['params_cached_total']}   "
            f"cache hit: {100.0 * dispatch['cache_hit']:.1f}%"
        )
        lines.append(
            f"  full syncs: {dispatch['full_syncs_total']}   "
            f"cache misses (resyncs): {dispatch['cache_misses_total']}"
        )
        shown = dispatch["rounds"][:max_round_rows]
        lines.append(
            markdown_table(
                ["round", "tasks", "sent", "cached", "full_syncs", "misses", "hit_%"],
                [
                    [
                        r["round"],
                        r["tasks"],
                        r["params_sent"],
                        r["params_cached"],
                        r["full_syncs"],
                        r["cache_misses"],
                        100.0 * r["cache_hit"],
                    ]
                    for r in shown
                ],
                precision=1,
            )
        )
        if len(dispatch["rounds"]) > len(shown):
            lines.append(
                f"... ({len(dispatch['rounds']) - len(shown)} more rounds)"
            )

    critical = summary.get("critical_path")
    if critical:
        lines.append("")
        lines.append("## Critical path (per round)")
        blame = critical["blame"]
        lines.append(
            "  blame: "
            f"wait {100.0 * blame['wait']:.1f}%   "
            f"compute {100.0 * blame['compute']:.1f}%   "
            f"wire {100.0 * blame['wire']:.1f}%   "
            f"aggregate {100.0 * blame['aggregate']:.1f}%"
        )
        shown = critical["rounds"][:max_round_rows]
        lines.append(
            markdown_table(
                [
                    "round",
                    "wall_s",
                    "wait_s",
                    "compute_s",
                    "wire_s",
                    "aggregate_s",
                    "participant",
                    "worker",
                ],
                [
                    [
                        r["round"],
                        r["wall_s"],
                        r["wait_s"],
                        r["compute_s"],
                        r["wire_s"],
                        r["aggregate_s"],
                        r["participant"],
                        r["worker"],
                    ]
                    for r in shown
                ],
                precision=4,
            )
        )
        if len(critical["rounds"]) > len(shown):
            lines.append(
                f"... ({len(critical['rounds']) - len(shown)} more rounds)"
            )

    ops = summary.get("ops") or []
    forward_ops = [o for o in ops if not str(o["op"]).startswith("tape:")]
    if forward_ops:
        lines.append("")
        lines.append(f"## Per-op forward profile (top {top} by total time)")
        lines.append(
            markdown_table(
                ["op", "shape", "count", "total_s"],
                [
                    [o["op"], o["shape"], o["count"], o["total_s"]]
                    for o in forward_ops[:top]
                ],
                precision=4,
            )
        )

    tape = summary.get("tape")
    if tape:
        lines.append("")
        lines.append("## Tape (compiled compute engine)")
        lines.append(
            f"local steps: {tape['tasks']}  "
            f"first sightings (new key, graph dropped): {tape['first_sighting']}  "
            f"admitted (graph retained): {tape['admitted']}  "
            f"replays: {tape['replayed']}  "
            f"eager fallbacks: {tape['fallback']}"
        )
        lines.append(
            f"tape hit-rate: {tape['hit_rate']:.1%}  "
            f"retained graphs (max): {tape['retained_graphs']}  "
            f"retained MB (max): {tape['retained_mb']:.1f}  "
            f"evictions: {tape['evicted']}"
        )
        replay_ops = [o for o in ops if str(o["op"]).startswith("tape:")]
        if replay_ops:
            lines.append("")
            lines.append(
                f"### Per-op replay profile (top {top} by total time)"
            )
            lines.append(
                markdown_table(
                    ["op", "count", "total_s", "mean_ms"],
                    [
                        [
                            o["op"][len("tape:"):],
                            o["count"],
                            o["total_s"],
                            1e3 * o["total_s"] / max(o["count"], 1),
                        ]
                        for o in replay_ops[:top]
                    ],
                    precision=4,
                )
            )

    return "\n".join(lines)


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
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "server"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "workers"},
        },
    ]
    worker_tids: Dict[str, int] = {}

    for event in events:
        name = event.get("event")
        if name == "span_end":
            duration = float(event.get("duration_s", 0.0))
            end_ts = float(event.get("ts", 0.0))
            trace_events.append(
                {
                    "ph": "X",
                    "name": str(event.get("span", "?")),
                    "pid": 0,
                    "tid": 0,
                    "ts": round((end_ts - duration) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": {"span_id": event.get("span_id", 0)},
                }
            )
        elif name == "trace.task":
            worker = str(event.get("worker", "?"))
            tid = worker_tids.get(worker)
            if tid is None:
                tid = len(worker_tids) + 1
                worker_tids[worker] = tid
                trace_events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": f"worker {worker}"},
                    }
                )
            dispatch_ts = float(event.get("dispatch_ts", 0.0))
            receive_ts = float(event.get("receive_ts", dispatch_ts))
            trace_events.append(
                {
                    "ph": "X",
                    "name": (
                        f"task r{event.get('round', '?')} "
                        f"p{event.get('participant', '?')}"
                    ),
                    "pid": 1,
                    "tid": tid,
                    "ts": round(dispatch_ts * 1e6, 3),
                    "dur": round(max(0.0, receive_ts - dispatch_ts) * 1e6, 3),
                    "args": {
                        "busy_s": event.get("busy_s", 0.0),
                        "wire_s": event.get("wire_s", 0.0),
                        "trace_id": event.get("trace_id"),
                        "parent_span_id": event.get("parent_span_id"),
                    },
                }
            )
            for span_name, start, duration in event.get("spans", []):
                trace_events.append(
                    {
                        "ph": "X",
                        "name": str(span_name),
                        "pid": 1,
                        "tid": tid,
                        "ts": round(float(start) * 1e6, 3),
                        "dur": round(float(duration) * 1e6, 3),
                    }
                )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
