"""Per-parameter version counters for delta-encoded dispatch.

The round hot path re-ships a mostly-unchanged θ slice to every
participant every round: only the parameters of *sampled* operations
receive gradient, so between two dispatches to the same worker the vast
majority of a sub-model's arrays are byte-identical.  This module gives
the server a cheap way to know *which* arrays changed —
:class:`ParameterVersions` bumps a counter per parameter name on every
optimizer step — and gives both ends of a dispatch the shared delta
protocol:

* :func:`split_delta` (server side) partitions a task's state into the
  entries a worker already holds at the current version (shipped as
  name→version *references*) and the entries that must travel in full.
* :func:`resolve_task` (worker side) reassembles the full state from the
  shipped entries plus the worker's persistent ``(name, version)`` cache,
  raising :class:`DeltaCacheMiss` when a referenced version is absent —
  the signal for the server to fall back to a full re-send.
* :class:`DeltaLedger` (server side) is the one record of which versions
  each worker acknowledged; the worker backends drive it, and it emits
  the per-round ``dispatch.round`` statistics.

Correctness never depends on cache warmth: a miss, a respawned worker, a
reconnect, or a ``--resume`` all degrade to a full send (and, on resume,
:func:`ParameterVersions.bump_all` invalidates every previously
acknowledged version).  The reassembled state is array-for-array the
same bytes a full send carries, so seeded runs do not depend on what was
cached.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

import numpy as np

from .participant import LocalStepTask

__all__ = [
    "ParameterVersions",
    "DeltaCacheMiss",
    "DeltaLedger",
    "split_delta",
    "resolve_task",
]


class ParameterVersions:
    """Monotonic per-parameter version counters.

    Versions start at 1 (so "never acknowledged" — an empty ack map —
    can be represented as version 0 or simply absence) and are bumped
    with :meth:`bump` after every server-side mutation of the named
    arrays (optimizer steps for parameters, aggregation for buffers).
    :meth:`bump_all` invalidates everything at once — used after a
    checkpoint restore, where workers' caches may hold arrays from a
    different timeline.

    Counters live in one contiguous ``int64`` array with a name →
    position index, so whole-model operations (``bump_all``, arena CoW
    change detection) are single numpy ops instead of per-name dict
    traffic.  All lookups return plain Python ints (wire codecs
    JSON-encode them directly).
    """

    def __init__(self, names: Iterable[str]):
        self._names: List[str] = list(names)
        self._pos: Dict[str, int] = {
            name: i for i, name in enumerate(self._names)
        }
        if len(self._pos) != len(self._names):
            raise ValueError("duplicate parameter names")
        self._array = np.ones(len(self._names), dtype=np.int64)

    def __getitem__(self, name: str) -> int:
        return int(self._array[self._pos[name]])

    def get(self, name: str, default: int = 0) -> int:
        pos = self._pos.get(name)
        return default if pos is None else int(self._array[pos])

    def bump(self, names: Iterable[str]) -> None:
        """Increment the counters of every name in ``names``.

        Names appearing k times are bumped k times (``np.add.at``);
        unknown names are appended starting at version 1.
        """
        idx: List[int] = []
        for name in names:
            pos = self._pos.get(name)
            if pos is None:
                pos = len(self._names)
                self._names.append(name)
                self._pos[name] = pos
                self._array = np.append(self._array, np.int64(0))
            idx.append(pos)
        if idx:
            np.add.at(self._array, np.asarray(idx, dtype=np.intp), 1)

    def bump_all(self) -> None:
        """Invalidate every parameter (checkpoint restore / resume)."""
        self._array += 1

    def subset(self, names: Iterable[str]) -> Dict[str, int]:
        """Name → current version for exactly ``names`` (dispatch order)."""
        array, pos = self._array, self._pos
        return {name: int(array[pos[name]]) for name in names}

    def snapshot(self) -> Dict[str, int]:
        return {
            name: int(self._array[i]) for i, name in enumerate(self._names)
        }

    def positions(self, names: Iterable[str]) -> np.ndarray:
        """Array positions of ``names`` (for vectorized gathers)."""
        pos = self._pos
        return np.asarray([pos[name] for name in names], dtype=np.intp)

    def values_at(self, positions: np.ndarray) -> np.ndarray:
        """Current counters at precomputed positions (int64 gather)."""
        return self._array[positions]

    def __len__(self) -> int:
        return len(self._names)


class DeltaCacheMiss(KeyError):
    """A task referenced cached parameters the worker does not hold."""

    def __init__(self, missing: Iterable[str]):
        self.missing: List[str] = list(missing)
        super().__init__(
            f"{len(self.missing)} referenced parameter(s) not in cache: "
            + ", ".join(self.missing[:4])
            + ("..." if len(self.missing) > 4 else "")
        )


def split_delta(
    state: Mapping[str, np.ndarray],
    versions: Mapping[str, int],
    acked: Mapping[str, int],
) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
    """Partition ``state`` into (ship-in-full, reference-by-version).

    A parameter may be referenced instead of shipped iff the receiver
    last acknowledged *exactly* the current version — anything older (or
    never acknowledged) travels in full.  Returns ``(delta, refs)``
    where ``refs`` maps name → the version the receiver must look up.
    """
    delta: Dict[str, np.ndarray] = {}
    refs: Dict[str, int] = {}
    for name, value in state.items():
        version = versions[name]
        if acked.get(name) == version:
            refs[name] = version
        else:
            delta[name] = value
    return delta, refs


class DeltaLedger:
    """Which parameter versions each worker holds, plus dispatch stats.

    One ledger per worker backend, keyed by worker endpoint.
    :meth:`record` after a successful reply, :meth:`forget` when a
    worker's cache is known to be void (cache miss, re-registration);
    :meth:`acked` is what that worker may be sent as references.
    Thread-safe: the backend's per-worker threads share one ledger.
    """

    def __init__(self, backend: str):
        self.backend = backend
        self._acked: Dict[Hashable, Dict[str, int]] = {}
        self._lock = threading.Lock()
        self.stats = dict.fromkeys(
            ("sent", "cached", "full_syncs", "cache_misses"), 0
        )

    def begin_round(self) -> None:
        """Zero the round's statistics."""
        with self._lock:
            self.stats = dict.fromkeys(self.stats, 0)

    def record(self, worker: Hashable, versions: Mapping[str, int]) -> None:
        """``worker`` replied: its cache now holds ``versions`` (shipped
        entries were cached, referenced entries were verified present)."""
        with self._lock:
            self._acked.setdefault(worker, {}).update(versions)

    def forget(self, worker: Hashable, cache_miss: bool = False) -> None:
        """Void everything ``worker`` acknowledged."""
        with self._lock:
            self._acked[worker] = {}
            self.stats["cache_misses"] += cache_miss

    def clear(self) -> None:
        with self._lock:
            self._acked.clear()

    def acked(self, worker: Hashable) -> Dict[str, int]:
        with self._lock:
            return dict(self._acked.get(worker, ()))

    def delta_task(
        self, task: LocalStepTask, acked: Mapping[str, int]
    ) -> LocalStepTask:
        """``task`` with everything in ``acked`` turned into references.

        A task without version metadata (hand-built, not from the
        server) travels as is; a task with nothing to reference is a
        full sync and also travels as is — its versions still warm the
        receiver's cache.
        """
        if task.state_versions is None:
            return task
        delta, refs = split_delta(task.state, task.state_versions, acked)
        with self._lock:
            self.stats["sent"] += len(delta)
            self.stats["cached"] += len(refs)
            self.stats["full_syncs"] += not refs
        if not refs:
            return task
        return dataclasses.replace(task, state=delta, state_refs=refs)

    def end_round(self, telemetry, round_index: int, num_tasks: int) -> None:
        """Emit the round's counters and its ``dispatch.round`` event."""
        if not (telemetry.enabled and num_tasks):
            return
        with self._lock:
            stats = dict(self.stats)
        total = stats["sent"] + stats["cached"]
        telemetry.count("dispatch.delta_params", stats["sent"])
        telemetry.count("dispatch.cached_params", stats["cached"])
        telemetry.count("dispatch.full_syncs", stats["full_syncs"])
        telemetry.count("dispatch.cache_misses", stats["cache_misses"])
        telemetry.emit(
            "dispatch.round",
            backend=self.backend,
            round=round_index,
            tasks=num_tasks,
            params_sent=stats["sent"],
            params_cached=stats["cached"],
            full_syncs=stats["full_syncs"],
            cache_misses=stats["cache_misses"],
            cache_hit=stats["cached"] / total if total else 0.0,
        )


def resolve_task(
    task: LocalStepTask,
    cache: Dict[str, Tuple[int, np.ndarray]],
) -> LocalStepTask:
    """Worker-side delta resolution against a persistent parameter cache.

    ``cache`` maps name → ``(version, array)``.  Shipped entries
    (``task.state``) refresh the cache at their declared versions;
    referenced entries (``task.state_refs``) are looked up and must match
    the referenced version *exactly*, else :class:`DeltaCacheMiss` is
    raised — the worker never trains on a guessed parameter.  Returns a
    task whose ``state`` is complete (refs folded in, ``state_refs``
    cleared) and is safe to hand to ``run_local_step`` unchanged.  A task
    with no version metadata at all (hand-built) passes through without
    touching the cache.
    """
    if task.state_versions is None and not task.state_refs:
        return task
    versions = task.state_versions or {}
    for name, value in task.state.items():
        cache[name] = (versions.get(name, 0), value)
    if not task.state_refs:
        if task.state_refs is None:
            return task
        return dataclasses.replace(task, state_refs=None)

    missing = [
        name
        for name, version in task.state_refs.items()
        if name not in cache or cache[name][0] != version
    ]
    if missing:
        raise DeltaCacheMiss(missing)

    merged = dict(task.state)
    for name, version in task.state_refs.items():
        merged[name] = cache[name][1]
    return dataclasses.replace(task, state=merged, state_refs=None)
