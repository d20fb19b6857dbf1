#!/usr/bin/env python
"""Tour of chaos testing and resilient dispatch (``repro.faults.network``).

Builds a seeded :class:`NetworkFaultPlan` that injects latency, mid-frame
drops, and a blackhole partition into the socket backend's wire traffic,
runs a short federated search under it, and prints what the resilience
machinery did about it: injected-fault counts, circuit-breaker
transitions, and the per-worker health table — the same "Worker health /
chaos" section ``repro trace`` renders.

Then it reruns with an *empty* plan and shows the chaos layer is inert:
the report matches a plain serial run bit for bit.  The chaos RNG
streams are private (derived from the plan seed, never the experiment
seed), which is what makes that guarantee possible.

Equivalent CLI::

    python -m repro run --profile small --backend socket \
        --network-faults plan.json --telemetry-log run.jsonl
    python -m repro trace run.jsonl
"""

import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.core import ExperimentConfig, FederatedModelSearch  # noqa: E402
from repro.faults.network import (  # noqa: E402
    NetworkFaultPlan,
    NetworkFaultSpec,
)
from repro.telemetry.trace import render_trace, summarize_trace  # noqa: E402


def run_search(network_faults=None, backend="socket"):
    config = ExperimentConfig.small(
        backend=backend,
        num_workers=2 if backend != "serial" else 0,
        num_participants=4,
        train_per_class=8,
        test_per_class=2,
        warmup_rounds=1,
        search_rounds=3,
        retrain_epochs=1,
        fl_retrain_rounds=1,
        seed=7,
        network_faults=network_faults,
    )
    pipeline = FederatedModelSearch(config)
    try:
        report = pipeline.run()
        events = list(pipeline.telemetry.events())
    finally:
        pipeline.close()
    return report, events


def main() -> None:
    plan = NetworkFaultPlan(
        seed=11,
        faults=(
            NetworkFaultSpec(kind="latency", probability=0.4,
                             latency_s=0.03, jitter_s=0.02),
            NetworkFaultSpec(kind="drop", probability=0.05),
            NetworkFaultSpec(kind="blackhole", probability=0.02,
                             duration_s=0.5),
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = Path(tmp) / "plan.json"
        plan.save(plan_path)
        print(f"fault plan ({plan_path.name}):")
        print(plan.to_json())

        print("\n--- chaos run (socket backend, faults injected) ---")
        chaos_report, events = run_search(network_faults=str(plan_path))
        summary = summarize_trace(events)
        text = render_trace(summary)
        marker = "## Worker health / chaos"
        section = text[text.index(marker):] if marker in text else text
        print(section.split("\n##")[0].rstrip())
        print(f"\nchaos-run genotype: {chaos_report.genotype}")

        print("\n--- empty plan: chaos layer is provably inert ---")
        empty_path = Path(tmp) / "empty.json"
        NetworkFaultPlan(seed=11).save(empty_path)
        clean_report, _ = run_search(network_faults=str(empty_path))
        serial_report, _ = run_search(backend="serial")
        identical = (
            clean_report.genotype == serial_report.genotype
            and clean_report.test_accuracy == serial_report.test_accuracy
            and repr(clean_report.search_results)
            == repr(serial_report.search_results)
        )
        print(f"socket+empty-plan == serial, bit for bit: {identical}")
        assert identical


if __name__ == "__main__":
    main()
