"""One protocol for every stateful component the checkpoint serializes.

The :class:`Stateful` protocol names the contract every owner of
round-loop state shares — from the parameter arena and the optimizer to
the server's own RNG streams and pending queue — so checkpoint v2
captures and restores all of them through a single code path and tests
round-trip every component uniformly.  The owners are the rows of
``repro.checkpoint._TABLE``.

The contract is deliberately minimal:

* ``state_dict()`` returns a serializable mapping snapshot;
* ``load_state_dict(state)`` restores from such a snapshot — tolerant of
  snapshots written by older code wherever the component can be.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, runtime_checkable

__all__ = ["Stateful", "capture_states", "restore_states"]


@runtime_checkable
class Stateful(Protocol):
    """Anything whose state can be captured into and restored from a dict."""

    def state_dict(self) -> Mapping:
        ...

    def load_state_dict(self, state: Mapping) -> object:
        ...


def capture_states(
    components: Mapping[str, Optional[Stateful]]
) -> Dict[str, Optional[Mapping]]:
    """Snapshot every component's state under its given key.

    ``None`` components stay ``None`` in the result (a checkpoint
    records that e.g. no fault injector was configured), so the key set
    of the output always equals the key set of the input.
    """
    states: Dict[str, Optional[Mapping]] = {}
    for key, component in components.items():
        if component is None:
            states[key] = None
            continue
        if not isinstance(component, Stateful):
            raise TypeError(
                f"checkpoint component {key!r} "
                f"({type(component).__name__}) does not implement the "
                f"Stateful protocol"
            )
        states[key] = component.state_dict()
    return states


def restore_states(
    components: Mapping[str, Optional[Stateful]],
    states: Mapping[str, Optional[Mapping]],
) -> List[str]:
    """Restore components from :func:`capture_states` output.

    A component is restored iff it exists *and* its key holds a non-None
    state.  Returns the keys that could not be restored — a live
    component whose state is absent/None, or a recorded state with no
    live component to receive it — so the caller can surface mismatches
    (e.g. resuming a faulted run without ``--faults``) instead of
    silently dropping them.
    """
    mismatched: List[str] = []
    for key in dict.fromkeys([*components, *states]):  # in the caller's order
        component = components.get(key)
        state = states.get(key)
        if component is None and state is None:
            continue
        if component is None or state is None:
            mismatched.append(key)
            continue
        component.load_state_dict(state)
    return sorted(mismatched)
