"""Process-wide settings and counters of the local-step engine.

:mod:`repro.federated.compiled` runs every local step eagerly on one
shared model per process; this module holds what that engine reads and
reports, apart from the model itself:

* the compute dtype (``configure()`` / ``settings()``): float64 by
  default, bit-identical to the eager oracle; opt-in float32, which is
  tolerance-verified instead.  It is process-global; worker processes
  receive it as a ``MSG_INIT`` field, never through the environment;
* :func:`members`, which stacks several members' batches along the batch
  axis of one graph;
* :func:`stats`, the step counter.

The module keeps its name from the capture/replay engine it used to
hold: graphs are no longer retained or replayed, so ``enabled()`` reads
``False`` and the ``replays`` counter stays 0.  Both remain only because
measurement harnesses read them.
"""

from __future__ import annotations

import contextlib
from typing import Dict

from . import tensor as _tensor

__all__ = [
    "TapeUnsupported",
    "configure",
    "settings",
    "enabled",
    "members",
    "TapeStats",
    "stats",
    "reset_stats",
]


class TapeUnsupported(RuntimeError):
    """Raised while building a graph of stacked members that cannot be
    stacked (affine batch norm); the caller runs the members one at a
    time."""


_COMPUTE_DTYPE: str = "float64"


def configure(compute_dtype: str) -> None:
    """Set this process's compute dtype."""
    global _COMPUTE_DTYPE
    if compute_dtype not in ("float64", "float32"):
        raise ValueError(
            f"compute_dtype must be 'float64' or 'float32', got {compute_dtype!r}"
        )
    _COMPUTE_DTYPE = compute_dtype


def settings() -> str:
    """The compute dtype — what a backend ships to its workers, which
    apply it with ``configure(settings)``."""
    return _COMPUTE_DTYPE


def enabled() -> bool:
    """Whether steps replay retained graphs: never (see the module
    docstring)."""
    return False


@contextlib.contextmanager
def members(count: int):
    """Build graphs for ``count`` members stacked along the batch axis.
    Yields the dict that buffer updates land in during the block:
    ``id(buffer) -> (count, *buffer.shape)`` per-member rows (empty for
    one member, whose updates write the buffers in place)."""
    previous = _tensor._MEMBERS, _tensor._MEMBER_BUFFERS
    _tensor._MEMBERS, _tensor._MEMBER_BUFFERS = count, {}
    try:
        yield _tensor._MEMBER_BUFFERS
    finally:
        _tensor._MEMBERS, _tensor._MEMBER_BUFFERS = previous


class TapeStats:
    """Process-global step counters (telemetry + tests): ``steps`` counts
    one per member of every local step the engine ran; ``replays`` is
    always 0."""

    __slots__ = ("steps", "replays")

    def __init__(self) -> None:
        self.steps = self.replays = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


_STATS = TapeStats()


def stats() -> TapeStats:
    return _STATS


def reset_stats() -> None:
    _STATS.__init__()
