"""Flat parameter arena: one contiguous buffer behind a module's state.

A :class:`ParameterArena` flattens every parameter and buffer of a module
into a single contiguous float64 ``data`` buffer (plus a same-size
gradient buffer) with a ``name → (offset, size, shape, kind, dtype)``
index.  After :meth:`attach`, each ``Parameter.data`` and registered
buffer *is* a reshaped view into the arena, so

* whole-model movement (snapshot, restore) is O(1) slice arithmetic
  over one array instead of O(params) dict traffic, and
  :func:`repro.nn.pack_state` packs its views without a copy,
* server-side gradient aggregation lands in one contiguous gradient
  buffer and is averaged with a handful of merged-range vector ops,
* copy-on-write Θ snapshots copy contiguous *ranges* of changed entries
  instead of one array per name.

The dict-shaped world keeps working unchanged: :class:`ArenaStateView`
is a read-only ``Mapping[str, np.ndarray]`` façade over the arena that
``state_dict()`` consumers can iterate, index, and ``np.savez`` exactly
like the historical dict.  Everything in-place (``arr[...] = x``,
``arr -= x``) writes through the views; the one forbidden operation is
*rebinding* a parameter or buffer to a fresh array, which would detach
it from the arena — :meth:`repro.nn.Module.apply_state` is the
sanctioned write API.

Bit-identity: attaching an arena never changes results.  Values are
copied in unchanged, float64 element-wise operations are order-safe,
and every reduction (gradient clipping, per-name averaging) keeps its
historical per-array order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = ["ArenaEntry", "ArenaStateView", "ParameterArena"]

_ARENA_DTYPE = np.dtype(np.float64)


class ArenaEntry(NamedTuple):
    """One named slice of the arena: ``name → (offset, shape, dtype)``."""

    offset: int
    size: int
    shape: Tuple[int, ...]
    kind: str  # "param" | "buffer"
    dtype: str  # numpy dtype.str, e.g. "<f8"


class ArenaStateView(Mapping):
    """Read-only dict-compatible façade over (a subset of) an arena.

    Behaves like the mapping ``state_dict()`` historically returned —
    iteration order follows the arena layout (parameters first, then
    buffers), ``view[name]`` yields a read-only reshaped window into the
    live buffer (zero copies), and ``dict(view)`` / ``np.savez(**view)``
    work unchanged.  Mutation through the view is rejected by numpy
    (``writeable=False``); use :meth:`repro.nn.Module.apply_state`.
    """

    __slots__ = ("_arena", "_names", "_lookup")

    def __init__(
        self, arena: "ParameterArena", names: Optional[Sequence[str]] = None
    ):
        self._arena = arena
        self._names = (
            tuple(arena.index) if names is None else tuple(names)
        )
        self._lookup = frozenset(self._names)
        unknown = self._lookup - set(arena.index)
        if unknown:
            raise KeyError(
                f"names not in arena: {sorted(unknown)[:4]}"
            )

    @property
    def arena(self) -> "ParameterArena":
        return self._arena

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._lookup:
            raise KeyError(name)
        return self._arena.readonly_view(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._lookup

    def __repr__(self) -> str:
        return (
            f"ArenaStateView({len(self._names)} entries, "
            f"{self._arena.size} scalars)"
        )


class ParameterArena:
    """Contiguous float64 storage for a module's parameters and buffers.

    Layout follows ``state_dict()`` traversal order: all parameters
    (``named_parameters`` order) first, then all buffers
    (``named_buffers`` order), packed back to back.  ``data`` holds the
    live values, ``grad`` is a same-shape scratch buffer the server's
    gradient aggregation accumulates into.
    """

    def __init__(self, module):
        self.module = module
        index: "OrderedDict[str, ArenaEntry]" = OrderedDict()
        offset = 0
        for kind, pairs in (
            ("param", [(n, p.data) for n, p in module.named_parameters()]),
            ("buffer", list(module.named_buffers())),
        ):
            for name, value in pairs:
                value = np.asarray(value)
                if value.dtype != _ARENA_DTYPE:
                    raise ValueError(
                        f"arena entries must be float64, {kind} {name!r} "
                        f"is {value.dtype}"
                    )
                if name in index:
                    raise ValueError(f"duplicate state entry {name!r}")
                index[name] = ArenaEntry(
                    offset, value.size, value.shape, kind, _ARENA_DTYPE.str
                )
                offset += value.size
        self.index = index
        self.size = offset
        self.data = np.zeros(offset, dtype=_ARENA_DTYPE)
        self.grad = np.zeros(offset, dtype=_ARENA_DTYPE)
        self.param_names: List[str] = [
            n for n, e in index.items() if e.kind == "param"
        ]
        self.buffer_names: List[str] = [
            n for n, e in index.items() if e.kind == "buffer"
        ]
        self._views = {
            name: self.data[e.offset : e.offset + e.size].reshape(e.shape)
            for name, e in index.items()
        }
        self._grad_views = {
            name: self.grad[e.offset : e.offset + e.size].reshape(e.shape)
            for name, e in index.items()
        }
        self._ro_views: Dict[str, np.ndarray] = {}
        self.attached = False
        # CoW snapshot state (see cow_snapshot): last-snapshotted version
        # per *param* entry plus the frozen per-name windows.
        self._snap_versions: Optional[np.ndarray] = None
        self._snap_arrays: Dict[str, np.ndarray] = {}
        self._ver_src = None
        self._ver_idx: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction / binding
    # ------------------------------------------------------------------
    @classmethod
    def from_module(cls, module) -> "ParameterArena":
        """Build an arena over ``module`` and attach it in one step."""
        arena = cls(module)
        arena.attach()
        return arena

    def attach(self) -> "ParameterArena":
        """Copy current values in and rebind the module onto the arena.

        After this, ``param.data`` and every registered buffer *are*
        arena views: in-place updates (optimizer steps, BN running-stat
        updates, ``apply_state``) write straight through to the buffer.
        Idempotent.
        """
        if self.attached:
            return self
        existing = getattr(self.module, "_arena", None)
        if existing is not None and existing is not self:
            raise ValueError("module is already attached to another arena")
        for name, param in self.module.named_parameters():
            view = self._views[name]
            view[...] = param.data
            param.data = view
        owners = self.module._named_buffer_owners()
        for name in self.buffer_names:
            owner, local = owners[name]
            view = self._views[name]
            view[...] = owner._buffers[local]
            owner._set_buffer(local, view)
        self.module._arena = self
        self.attached = True
        return self

    def detach(self) -> "ParameterArena":
        """Rebind the module back onto private copies (undo attach)."""
        if not self.attached:
            return self
        for name, param in self.module.named_parameters():
            param.data = np.array(self._views[name], copy=True)
        owners = self.module._named_buffer_owners()
        for name in self.buffer_names:
            owner, local = owners[name]
            owner._set_buffer(local, np.array(self._views[name], copy=True))
        self.module._arena = None
        self.attached = False
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """Writable reshaped window over ``data`` for one entry."""
        return self._views[name]

    def grad_view(self, name: str) -> np.ndarray:
        """Writable reshaped window over ``grad`` for one entry."""
        return self._grad_views[name]

    def readonly_view(self, name: str) -> np.ndarray:
        cached = self._ro_views.get(name)
        if cached is None:
            e = self.index[name]
            cached = self.data[e.offset : e.offset + e.size].reshape(e.shape)
            cached.flags.writeable = False
            self._ro_views[name] = cached
        return cached

    def state_view(self, names: Optional[Sequence[str]] = None) -> ArenaStateView:
        """Dict-compatible read-only façade (all entries by default)."""
        return ArenaStateView(self, names)

    def write(self, name: str, value: np.ndarray) -> None:
        """In-place write of one entry (keeps module attributes bound)."""
        self._views[name][...] = value

    def state_dict(self) -> ArenaStateView:
        return self.state_view()

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Strict in-place restore: every entry written through its view."""
        self.module.apply_state(state, strict=True)

    # ------------------------------------------------------------------
    # Whole-buffer movement
    # ------------------------------------------------------------------
    def flatten(self, state: Mapping[str, np.ndarray]) -> np.ndarray:
        """Pack a per-name state dict into one flat arena-layout array."""
        out = np.zeros(self.size, dtype=_ARENA_DTYPE)
        for name, value in state.items():
            e = self.index[name]
            out[e.offset : e.offset + e.size] = np.asarray(value).reshape(-1)
        return out

    def load_flat(self, flat: np.ndarray) -> None:
        """Restore the whole arena from a flat snapshot (one range copy)."""
        flat = np.asarray(flat)
        if flat.shape != self.data.shape:
            raise ValueError(
                f"flat snapshot has shape {flat.shape}, arena holds "
                f"{self.data.shape}"
            )
        self.data[...] = flat

    def merged_runs(self, names: Iterable[str]) -> List[Tuple[int, int]]:
        """Contiguous ``[start, stop)`` ranges covering ``names``.

        Entries adjacent in the layout coalesce into one run, so a
        sub-model's ~contiguous slice of the supernet collapses to a few
        vector ops instead of one op per name.
        """
        entries = sorted(
            (self.index[n] for n in names if n in self.index),
            key=lambda e: e.offset,
        )
        runs: List[Tuple[int, int]] = []
        for e in entries:
            if runs and runs[-1][1] == e.offset:
                runs[-1] = (runs[-1][0], e.offset + e.size)
            else:
                runs.append((e.offset, e.offset + e.size))
        return runs

    # ------------------------------------------------------------------
    # Server aggregation support
    # ------------------------------------------------------------------
    def average_grads(self, names: Iterable[str], count: int) -> None:
        """Divide the gradient windows of ``names`` by ``count`` in place.

        The server accumulates every validated gradient in its window
        (:meth:`grad_view`), so a round's sums all live here.  Division
        runs over merged contiguous ranges; element-wise, so
        bit-identical to per-name division.
        """
        for start, stop in self.merged_runs(names):
            self.grad[start:stop] /= count

    # ------------------------------------------------------------------
    # Copy-on-write snapshots (staleness memory pools)
    # ------------------------------------------------------------------
    def cow_snapshot(self, versions) -> Dict[str, np.ndarray]:
        """Range-copy CoW snapshot of the *parameter* entries.

        ``versions`` is a :class:`repro.federated.ParameterVersions`
        (anything with ``positions``/``values_at``).  Entries whose
        version is unchanged since the previous snapshot share the
        previously frozen window; changed entries are copied as merged
        contiguous ranges (one ``ndarray.copy`` per range) and sliced
        into per-name windows.
        """
        names = self.param_names
        if self._ver_src is not versions or self._ver_idx is None:
            self._ver_src = versions
            self._ver_idx = versions.positions(names)
            self._snap_versions = np.zeros(len(names), dtype=np.int64)
            self._snap_arrays = {}
        current = versions.values_at(self._ver_idx)
        changed = np.nonzero(current != self._snap_versions)[0]
        if changed.size:
            entries = [self.index[names[i]] for i in changed]
            run_start = 0
            while run_start < len(entries):
                run_stop = run_start + 1
                while (
                    run_stop < len(entries)
                    and entries[run_stop].offset
                    == entries[run_stop - 1].offset + entries[run_stop - 1].size
                ):
                    run_stop += 1
                lo = entries[run_start].offset
                hi = entries[run_stop - 1].offset + entries[run_stop - 1].size
                chunk = self.data[lo:hi].copy()
                for j in range(run_start, run_stop):
                    e = entries[j]
                    window = chunk[e.offset - lo : e.offset - lo + e.size]
                    self._snap_arrays[names[changed[j]]] = window.reshape(e.shape)
                run_start = run_stop
            self._snap_versions[changed] = current[changed]
        return {name: self._snap_arrays[name] for name in names}

    def __repr__(self) -> str:
        return (
            f"ParameterArena({len(self.index)} entries, {self.size} scalars, "
            f"attached={self.attached})"
        )
