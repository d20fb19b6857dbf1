"""Local-step compute hot path: the eager oracle vs compiled tape replay.

The round loop is compute-bound (see the round ledger's
``nn.forward_s`` / ``nn.backward_s`` under ``benchmarks/ledger/``):
nearly all of the serial s/round is one forward/backward per
participant.  The compiled engine (``repro.nn.tape``) captures the step
for a given (mask, shapes, dtype) key once and replays it with
preallocated buffers; this bench measures the s/step payoff of each
engine mode on a repeated mask set, the regime the engine targets
(late-search, when the controller has converged and masks repeat).

Modes under measurement, identical seeded task stream for each:

* ``eager``        — the private eager oracle (``_run_eager_step``: the
  ``TapeUnsupported`` fallback; no production step takes it otherwise),
* ``tape``         — float64 capture/replay (bit-identical contract),
* ``tape+f32``     — float32 compute buffers, float64 master params.

Results go to ``benchmarks/results/compute_hotpath.txt`` and, machine
readable (including the per-op replay breakdown), ``BENCH_compute.json``
at the repo root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import run_once, save_result

from harness import BENCH_NET, bench_dataset
from repro.controller import ArchitecturePolicy
from repro.federated import compiled
from repro.federated.participant import (
    LocalStepTask,
    _run_eager_step,
    run_local_step,
)
from repro.nn import tape
from repro.search_space import Supernet
from repro.telemetry.tracing import SpanRecorder

BATCH = 16
NUM_MASKS = 4
WARMUP_STEPS = 8  # two sightings per mask: the second retains its graph
TIMED_STEPS = 32
REPEATS = 3  # best-of, to shave scheduler noise

BENCH_JSON = Path(__file__).parent.parent / "BENCH_compute.json"

MODES = [
    ("eager", dict(step=_run_eager_step)),
    ("tape", dict()),
    ("tape+f32", dict(compute_dtype="float32")),
]


def build_tasks():
    """A seeded task stream cycling over NUM_MASKS repeated masks."""
    net = Supernet(BENCH_NET, rng=np.random.default_rng(0))
    policy = ArchitecturePolicy(BENCH_NET.num_edges, rng=np.random.default_rng(7))
    masks = [policy.sample_mask() for _ in range(NUM_MASKS)]
    return [
        LocalStepTask(
            participant_id=i % 2,
            round_index=i,
            mask=masks[i % NUM_MASKS],
            state=net.submodel_state(masks[i % NUM_MASKS]),
            batch_seed=1000 + i,
        )
        for i in range(WARMUP_STEPS + TIMED_STEPS)
    ]


def run_mode(tasks, train, step=run_local_step, compute_dtype="float64"):
    """Time TIMED_STEPS steps in one engine mode; returns s/step, the
    gradient dicts of the timed steps, and the per-op profile rows."""
    tape.configure(compute_dtype)
    compiled.reset_cache()
    try:
        for task in tasks[:WARMUP_STEPS]:
            step(task, train, BATCH, BENCH_NET)
        best = float("inf")
        updates = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            updates = [
                step(task, train, BATCH, BENCH_NET)
                for task in tasks[WARMUP_STEPS:]
            ]
            best = min(best, time.perf_counter() - start)
        # Per-op breakdown from one extra profiled step (outside the
        # timed window: the profiler hook itself costs time).
        recorder = SpanRecorder(profile_ops=True)
        step(tasks[WARMUP_STEPS], train, BATCH, BENCH_NET, recorder=recorder)
        ops = recorder.payload().get("ops", [])
        return best / TIMED_STEPS, updates, ops
    finally:
        tape.configure("float64")
        compiled.reset_cache()


def test_compute_hotpath(benchmark):
    def reproduce():
        train, _ = bench_dataset(train_per_class=20)
        tasks = build_tasks()
        return {
            name: run_mode(tasks, train, **kwargs) for name, kwargs in MODES
        }

    results = run_once(benchmark, reproduce)
    eager_s = results["eager"][0]

    lines = [
        f"Compute hot path: {TIMED_STEPS} local steps over {NUM_MASKS} "
        f"repeated masks, batch {BATCH}, best of {REPEATS}",
        f"(host cpu_count={os.cpu_count()})",
        "",
        f"{'mode':<14} {'ms/step':>10} {'speedup':>9}",
    ]
    summary = {}
    for name, _ in MODES:
        s_per_step, _, _ = results[name]
        summary[name] = {
            "s_per_step": s_per_step,
            "speedup_vs_eager": eager_s / s_per_step,
        }
        lines.append(
            f"{name:<14} {s_per_step * 1e3:>10.2f} "
            f"{eager_s / s_per_step:>8.2f}x"
        )

    lines += ["", "per-op replay breakdown (tape, top 8 by total time):"]
    tape_ops = sorted(results["tape"][2], key=lambda r: -r[3])
    for op, shape, count, total in tape_ops[:8]:
        lines.append(f"  {op:<28} {shape:<16} x{count:<5} {total * 1e3:8.3f} ms")
    save_result("compute_hotpath", lines)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "batch_size": BATCH,
                "num_masks": NUM_MASKS,
                "timed_steps": TIMED_STEPS,
                "repeats": REPEATS,
                "modes": summary,
                "per_op": {
                    name: [
                        {
                            "op": op,
                            "shape": shape,
                            "count": count,
                            "total_s": total,
                        }
                        for op, shape, count, total in sorted(
                            results[name][2], key=lambda r: -r[3]
                        )
                    ]
                    for name, _ in MODES
                },
            },
            indent=2,
        )
        + "\n"
    )

    # Engine contract on the identical task stream: float64 replay is
    # bit-identical to eager; float32 is tolerance-equal.
    eager_updates = results["eager"][1]
    for name, rtol, atol, bit in [
        ("tape", 0, 0, True),
        ("tape+f32", 1e-4, 1e-6, False),
    ]:
        for ref, got in zip(eager_updates, results[name][1]):
            for pname in ref.gradients:
                if bit:
                    np.testing.assert_array_equal(
                        ref.gradients[pname], got.gradients[pname]
                    )
                else:
                    np.testing.assert_allclose(
                        ref.gradients[pname],
                        got.gradients[pname],
                        rtol=rtol,
                        atol=atol,
                    )

    # The point of the engine: replay beats eager on repeated masks.
    assert summary["tape"]["speedup_vs_eager"] > 1.2, (
        f"tape replay must beat eager; got "
        f"{summary['tape']['speedup_vs_eager']:.2f}x"
    )
