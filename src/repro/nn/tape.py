"""Capture/replay compute engine for the :mod:`repro.nn` hot path.

The submodel graph for a given controller mask is *fixed*: every local
step runs the same primitive ops on the same shapes.  Eager execution
nevertheless rebuilds the whole Python autograd graph — one
:class:`~repro.nn.tensor.Tensor`, one backward closure, one parent tuple
per op — every step.  This module captures the forward **once** per
(mask, input shape, dtype) key as a linear tape of replay thunks over a
retained graph, then replays it with zero graph construction:

* **Forward replay** walks the tape; each thunk recomputes its op's
  output from the (refreshed) parent ``.data`` arrays, rebinding the
  retained output tensor's ``.data`` and any array its backward saved
  (closure-cell rebinding — see :mod:`repro.nn.tensor`).  The thunks
  hold those tensors, so a retained graph keeps its values; a graph
  built without a tape keeps only its backward's saved arrays.
* **Backward replay** seeds the retained output and walks the stored
  topological order of graph nodes in reverse, accumulating into
  **preallocated gradient buffers** (``_Node._grad_buf``) — one
  ``np.copyto`` instead of one allocation per node.  Parameter buffers
  alias the flat :class:`~repro.nn.arena.ParameterArena` gradient view
  when an arena is attached.

Equality contract: float64 replay is **bit-identical** to eager — the
thunks run the same numpy expressions in the same order, the retained
closures compute the same backward products, and the first-accumulate
``np.copyto`` produces the same bytes as eager's defensive copy.  The
opt-in float32 mode (``compute_dtype="float32"``) replays the tape in
single precision and is tolerance-verified instead.

The replay dtype is process-global and set by ``configure()``; worker
processes receive it as a ``MSG_INIT`` field, never through the
environment.  Compiled tapes are
*derived state*: never serialized, never checkpointed, rebuilt on first
use after a resume.
"""

from __future__ import annotations

import contextlib
import time
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor, _Node, _topo_order

__all__ = [
    "TapeUnsupported",
    "configure",
    "settings",
    "enabled",
    "capturing",
    "members",
    "CompiledStep",
    "TapeStats",
    "stats",
    "reset_stats",
]


class TapeUnsupported(RuntimeError):
    """Raised mid-capture when an op cannot be recorded (e.g. active
    dropout).  The caller falls back to eager execution for that key."""


_COMPUTE_DTYPE: str = "float64"


def configure(compute_dtype: str) -> None:
    """Set this process's replay dtype."""
    global _COMPUTE_DTYPE
    if compute_dtype not in ("float64", "float32"):
        raise ValueError(
            f"compute_dtype must be 'float64' or 'float32', got {compute_dtype!r}"
        )
    _COMPUTE_DTYPE = compute_dtype


def settings() -> str:
    """The replay dtype — what a backend ships to its workers, which
    apply it with ``configure(settings)``."""
    return _COMPUTE_DTYPE


def enabled() -> bool:
    """Always true (the engine is the one local-step path); kept because
    measurement harnesses report it."""
    return True


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
@contextlib.contextmanager
def capturing(entries: List[Tuple[str, Callable[[], None]]]):
    """Record every op executed in the block into ``entries``."""
    previous = _tensor._set_tape(entries)
    try:
        yield entries
    finally:
        _tensor._set_tape(previous)


@contextlib.contextmanager
def members(count: int):
    """Build or replay graphs for ``count`` members stacked along the
    batch axis.  Yields the dict that buffer updates land in during the
    block: ``id(buffer) -> (count, *buffer.shape)`` per-member rows (empty
    for one member, whose updates write the buffers in place)."""
    previous = _tensor._MEMBERS, _tensor._MEMBER_BUFFERS
    _tensor._MEMBERS, _tensor._MEMBER_BUFFERS = count, {}
    try:
        yield _tensor._MEMBER_BUFFERS
    finally:
        _tensor._MEMBERS, _tensor._MEMBER_BUFFERS = previous


class TapeStats:
    """Process-global step counters (telemetry + tests).

    A partition: every local step is counted under exactly one name —
    ``first_sightings`` (captured, graph dropped), ``captures`` (second
    sighting, graph retained), ``replays`` or ``fallbacks`` (eager).  A
    grouped step counts one outcome per member.
    """

    __slots__ = ("first_sightings", "captures", "replays", "fallbacks")

    def __init__(self) -> None:
        self.first_sightings = self.captures = self.replays = self.fallbacks = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


_STATS = TapeStats()


def stats() -> TapeStats:
    return _STATS


def reset_stats() -> None:
    _STATS.__init__()


# ----------------------------------------------------------------------
# Compiled step
# ----------------------------------------------------------------------


class CompiledStep:
    """One captured (mask, input-shape, dtype) forward as a replayable tape.

    Parameters
    ----------
    x_in:
        The retained input tensor; replays rebind ``x_in.data``.
    output:
        The retained network output (logits) tensor.
    entries:
        ``(op_name, replay_fn)`` tape recorded during capture.  Its
        thunks hold the tensors they rewrite, so they — not the graph's
        nodes — keep the captured values alive.
    named_params:
        ``(name, parameter)`` pairs in declaration order; the ones whose
        node this graph reaches become :attr:`param_leaves`.
    grad_view:
        Optional ``name -> flat-buffer-window`` resolver (the arena's
        :meth:`~repro.nn.arena.ParameterArena.grad_view`); matching
        parameter gradient buffers alias these windows.
    members:
        Members stacked along the batch axis when the graph was built
        (:func:`members`).  Above one, every parameter gradient buffer
        gets a leading member axis — ``(members, *param.shape)``, one
        row per member — and none aliases ``grad_view``.
    """

    __slots__ = (
        "x_in",
        "output",
        "entries",
        "_reversed",
        "_nodes",
        "_grad_bufs",
        "param_leaves",
    )

    def __init__(
        self,
        x_in: Tensor,
        output: Tensor,
        entries: List[Tuple[str, Callable[[], None]]],
        named_params: Sequence[Tuple[str, Tensor]] = (),
        grad_view: Optional[Callable[[str], Optional[np.ndarray]]] = None,
        members: int = 1,
    ):
        self.x_in = x_in
        self.output = output
        self.entries = entries
        ordered = _topo_order(output._node)
        self._nodes = ordered
        self._reversed = [
            n for n in reversed(ordered) if n._backward is not None
        ]
        # Preallocate gradient buffers for *parameter* leaves: each one
        # accumulates via np.copyto into a retained array — aliasing the
        # arena's flat gradient window when one matches — so optimizer
        # state access never re-allocates.  They are installed on the
        # (shared) parameters' nodes only for this graph's backward walk:
        # graphs of other member counts need buffers of other shapes.
        # Intermediate nodes keep the eager zero-copy borrow path: an
        # extra memcpy per activation gradient costs more than the
        # allocation it would save.
        # Buffers must be C-contiguous — eager gradients always are
        # (``_Node._accumulate`` normalises layout), and numpy's
        # pairwise-summation reductions are layout-sensitive, so a
        # buffer with a strided layout would change downstream ``sum``
        # bits.
        in_graph = {
            id(node) for node in ordered if node.requires_grad
        }
        #: (name, param) for every named parameter this graph actually
        #: touches, in the caller's ``named_params`` (declaration)
        #: order — the only slots whose ``.grad`` a step populates, so
        #: callers can clear and pack exactly this subset instead of
        #: walking the full model.
        self.param_leaves: List[Tuple[str, Tensor]] = [
            (name, param)
            for name, param in named_params
            if id(param._node) in in_graph
        ]
        lead = (members,) if members > 1 else ()
        self._grad_bufs: List[Tuple[_Node, np.ndarray]] = []
        for name, param in self.param_leaves:
            node = param._node
            buf = None
            if grad_view is not None and not lead:
                buf = grad_view(name)
                if buf is not None and not buf.flags["C_CONTIGUOUS"]:
                    buf = None
            if buf is None or buf.shape != lead + node.shape:
                buf = np.empty(lead + node.shape, dtype=node.dtype)
            self._grad_bufs.append((node, buf))

    def retained_bytes(self) -> int:
        """Bytes this graph keeps alive: the distinct ndarray buffers
        reachable from the tape entries (the values of every tensor they
        rewrite, their reused output buffers) and from every node's
        backward closure (its saved arrays, dX result buffers), plus the
        parameter gradient buffers.  im2col windows and backward's other
        large scratch are the thread's workspace
        (:func:`repro.nn.functional._scratch`), not the graph's; only
        the 1x-activation result buffers are allocated by the first
        backward."""
        owners: Dict[int, int] = {}
        seen: set = set()

        def visit(obj) -> None:
            if isinstance(obj, np.ndarray):
                owner = obj.base if isinstance(obj.base, np.ndarray) else obj
                owners[id(owner)] = owner.nbytes
                return
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                visit(obj.data)
            elif isinstance(obj, (dict, list, tuple)):
                for item in obj.values() if isinstance(obj, dict) else obj:
                    visit(item)
            elif isinstance(obj, types.FunctionType):
                for cell in obj.__closure__ or ():
                    try:
                        visit(cell.cell_contents)
                    except ValueError:  # a nonlocal not bound yet
                        pass
                visit(obj.__defaults__ or ())

        visit((
            [buf for _, buf in self._grad_bufs],
            [fn for _, fn in self.entries],
            [node._backward for node in self._nodes],
        ))
        return sum(owners.values())

    def replay_forward(
        self, x: np.ndarray, profile: Optional[Dict] = None
    ) -> Tensor:
        """Run the tape on ``x``; returns the retained output tensor.

        ``profile`` (optional) is a mapping updated with per-op replay
        timings keyed ``("tape:<op>", "<out-shape>")`` →
        ``[count, total_s]`` — the same row format as
        :class:`repro.telemetry.tracing.OpProfiler`.
        """
        self.x_in.data = x
        if profile is None:
            for _, fn in self.entries:
                fn()
        else:
            for name, fn in self.entries:
                start = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - start
                key = ("tape:" + name, "*")
                cell = profile.get(key)
                if cell is None:
                    profile[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
        return self.output

    def replay_backward(self, loss: Tensor) -> None:
        """Backward from a fresh eager ``loss`` node through the tape.

        ``loss`` must have been computed (eagerly) from ``self.output``.
        The walk mirrors :meth:`Tensor.backward` seeded at ``loss``:
        eager DFS-from-loss orders the loss node first, then exactly this
        stored order for the output's subgraph — so the accumulation
        sequence (and hence every float) matches eager bit for bit.  The
        graph's parameter gradient buffers are installed for the walk.
        """
        for node, buf in self._grad_bufs:
            node._grad_buf = buf
        try:
            root = loss._node
            root._accumulate(np.ones_like(loss.data))
            if root._backward is not None:
                root._backward(root._grad)
            root._grad = None
            for node in self._reversed:
                g = node._grad
                if g is not None:
                    node._backward(g)
                    if node._parents:
                        node._grad = None
        finally:
            for node, _ in self._grad_bufs:
                node._grad_buf = None
