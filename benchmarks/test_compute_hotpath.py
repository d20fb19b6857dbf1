"""Local-step compute hot path: the eager oracle vs the shared-model step.

The round loop is compute-bound (see the round ledger's
``nn.forward_s`` / ``nn.backward_s`` under ``benchmarks/ledger/``):
nearly all of the serial s/round is one forward/backward per
participant.  Every production step runs eagerly on one shared model per
process (:mod:`repro.federated.compiled`), alone or stacked with the
other members of its mask group; this bench measures s per member step
of each mode on the same seeded tasks.

Modes under measurement:

* ``eager-oracle`` — ``_run_eager_step``, which rebuilds the pruned
  sub-model every step (the tests' reference; no production step runs
  it),
* ``shared``       — one task per step on the shared float64 model
  (bit-identical to the oracle),
* ``shared+f32``   — the same in float32 (tolerance-equal),
* ``group4``       — four tasks of one mask and state stacked into one
  float64 step (each member bit-identical to the oracle),
* ``group4+f32``   — the same in float32.

Results go to ``benchmarks/results/compute_hotpath.txt`` and, machine
readable (including each mode's per-module forward profile),
``BENCH_compute.json`` at the repo root.
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
    ParticipantSpec,
    _run_eager_step,
    run_local_group,
)
from repro.nn import tape
from repro.search_space import Supernet
from repro.telemetry.tracing import SpanRecorder

BATCH = 16
NUM_MASKS = 4
GROUP = 4
WARMUP_STEPS = 8
TIMED_STEPS = 32  # member steps per timed pass, a multiple of GROUP
REPEATS = 3  # best-of, to shave scheduler noise

BENCH_JSON = Path(__file__).parent.parent / "BENCH_compute.json"

#: (name, member steps per call, compute dtype); group size 0 is the oracle.
MODES = [
    ("eager-oracle", 0, "float64"),
    ("shared", 1, "float64"),
    ("shared+f32", 1, "float32"),
    ("group4", GROUP, "float64"),
    ("group4+f32", GROUP, "float32"),
]


def build_tasks():
    """A seeded task stream cycling over NUM_MASKS masks in runs of
    GROUP: each run shares its mask and its state arrays, so the run is
    one group."""
    net = Supernet(BENCH_NET, rng=np.random.default_rng(0))
    policy = ArchitecturePolicy(BENCH_NET.num_edges, rng=np.random.default_rng(7))
    masks = [policy.sample_mask() for _ in range(NUM_MASKS)]
    states = [net.submodel_state(mask) for mask in masks]
    return [
        LocalStepTask(
            participant_id=i % GROUP,
            round_index=i,
            mask=masks[i // GROUP % NUM_MASKS],
            state=states[i // GROUP % NUM_MASKS],
            batch_seed=1000 + i,
        )
        for i in range(WARMUP_STEPS + TIMED_STEPS)
    ]


def run_mode(tasks, train, group, compute_dtype):
    """Time TIMED_STEPS member steps in one mode; returns s per member
    step, the updates of the timed steps, and the per-op profile rows of
    one extra profiled call."""
    spec = ParticipantSpec(0, train, BATCH)

    def call(chunk, recorder=None):
        if group == 0:
            return [
                _run_eager_step(t, train, BATCH, BENCH_NET, recorder=recorder)
                for t in chunk
            ]
        return run_local_group(chunk, [spec] * len(chunk), BENCH_NET, recorder)

    size = group or 1
    tape.configure(compute_dtype)
    compiled.reset_cache()
    try:
        for lo in range(0, WARMUP_STEPS, size):
            call(tasks[lo : lo + size])
        timed = tasks[WARMUP_STEPS:]
        best = float("inf")
        updates = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            updates = [
                u for lo in range(0, len(timed), size) for u in call(timed[lo : lo + size])
            ]
            best = min(best, time.perf_counter() - start)
        # Per-op breakdown from one extra profiled call (outside the
        # timed window: the profiler hook itself costs time).
        recorder = SpanRecorder(profile_ops=True)
        call(timed[:size], recorder)
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
            name: run_mode(tasks, train, group, dtype) for name, group, dtype in MODES
        }

    results = run_once(benchmark, reproduce)
    oracle_s = results["eager-oracle"][0]

    lines = [
        f"Compute hot path: {TIMED_STEPS} member steps over {NUM_MASKS} masks, "
        f"batch {BATCH} per member, best of {REPEATS}",
        f"(host cpu_count={os.cpu_count()})",
        "",
        f"{'mode':<14} {'ms/member step':>15} {'vs oracle':>10}",
    ]
    summary = {}
    for name, group, dtype in MODES:
        s_per_step = results[name][0]
        summary[name] = {
            "group": group,
            "compute_dtype": dtype,
            "s_per_member_step": s_per_step,
            "speedup_vs_oracle": oracle_s / s_per_step,
        }
        lines.append(
            f"{name:<14} {s_per_step * 1e3:>15.2f} {oracle_s / s_per_step:>9.2f}x"
        )

    lines += ["", "per-module forward profile (shared, one step, top 8 by total time):"]
    for op, shape, count, total in sorted(results["shared"][2], key=lambda r: -r[3])[:8]:
        lines.append(f"  {op:<28} {shape:<16} x{count:<5} {total * 1e3:8.3f} ms")
    save_result("compute_hotpath", lines)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "batch_size": BATCH,
                "num_masks": NUM_MASKS,
                "timed_member_steps": TIMED_STEPS,
                "repeats": REPEATS,
                "modes": summary,
                "per_op": {
                    name: [
                        {"op": op, "shape": shape, "count": count, "total_s": total}
                        for op, shape, count, total in sorted(
                            results[name][2], key=lambda r: -r[3]
                        )
                    ]
                    for name, _, _ in MODES
                },
            },
            indent=2,
        )
        + "\n"
    )

    # Engine contract on the identical task stream: float64 steps are
    # bit-identical to the oracle, alone or grouped; float32 is
    # tolerance-equal.
    oracle_updates = results["eager-oracle"][1]
    for name, _, dtype in MODES[1:]:
        for ref, got in zip(oracle_updates, results[name][1]):
            assert set(ref.gradients) == set(got.gradients), name
            for pname in ref.gradients:
                if dtype == "float64":
                    np.testing.assert_array_equal(
                        ref.gradients[pname], got.gradients[pname], err_msg=name
                    )
                else:
                    np.testing.assert_allclose(
                        ref.gradients[pname], got.gradients[pname],
                        rtol=1e-4, atol=1e-6, err_msg=name,
                    )
