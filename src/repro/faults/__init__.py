"""``repro.faults`` — deterministic fault injection for the search runtime.

The package answers one question: *does the search survive hostile
reality?*  A :class:`FaultPlan` (plain JSON) schedules corrupted
gradients, dropped or duplicated replies, availability flaps, and forced
server crashes; a :class:`FaultInjector` applies it deterministically
from a private seeded RNG, so every chaos run is exactly repeatable —
and resumable, because the injector's state travels inside search
checkpoints.

Wire a plan in via ``ExperimentConfig(fault_plan_path="plan.json")`` or
``repro run --faults plan.json``; see ``examples/fault_tour.py``.

The *wire* layer has its own chaos story in :mod:`repro.faults.network`:
seeded :class:`NetworkFaultPlan` specs (latency, mid-frame drops,
connect refusals, blackhole partitions, throttling, frame corruption)
applied through :class:`ChaosConnection` on both sides of the socket
transport — ``ExperimentConfig(network_faults="plan.json")`` /
``repro run --network-faults plan.json``; see ``examples/chaos_tour.py``.
"""

from .injector import FaultInjector
from .network import (
    NETWORK_FAULT_KINDS,
    ChaosConnection,
    ChaosEngine,
    NetworkFaultPlan,
    NetworkFaultSpec,
)
from .plan import FAULT_KINDS, FaultPlan, FaultSpec, InjectedServerCrash

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedServerCrash",
    "NETWORK_FAULT_KINDS",
    "NetworkFaultPlan",
    "NetworkFaultSpec",
    "ChaosEngine",
    "ChaosConnection",
]
