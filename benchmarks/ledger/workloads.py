"""The four closed-loop workloads (one driver, one round at a time).

Engine switches (``delta_dispatch``, ``param_arena``, ``tape_compile``,
``compute_dtype``, ``tape_fusion``) are never set here: the benchmark
measures what the code does by default, so promoting a fast path moves
a number instead of needing an edit to this file.
"""

from __future__ import annotations

import os

NUM_WORKERS = min(2, os.cpu_count() or 1)

#: rounds before the timed window; they belong to ``setup_s``
COLD_ROUNDS = 2

_SMALL_NET = dict(image_size=8, init_channels=4, num_cells=2, steps=1)

#: name -> why it exists, ExperimentConfig overrides, rounds of the full
#: (round-counted) mode, checkpoint cadence, and the workload whose
#: digest must equal this one's.
WORKLOADS = {
    "search-serial": dict(
        why="default config on the serial backend with a live policy: ~90% of the "
            "round is nn forward/backward and sub-model build, transport does nothing",
        config=dict(backend="serial"),
        rounds=100,
        traced_rounds=30,
    ),
    "search-socket": dict(
        why="same inputs over 2 socket workers: adds encode, wire, decode and 2-way "
            "overlap, so codec and dispatch work shows here and not on search-serial",
        config=dict(backend="socket", num_workers=NUM_WORKERS),
        rounds=100,
        traced_rounds=30,
        twin="search-serial",
    ),
    "cohort-converged": dict(
        why="cohort of 100 from a 100k population on a converged policy: one mask per "
            "round, small steps, so sampling, materialising, validation and the fold dominate",
        config=dict(
            population=100_000, cohort_size=100, batch_size=8, backend="serial",
            **_SMALL_NET,
        ),
        rounds=100,
        traced_rounds=30,
        converged=True,
    ),
    "soft-sync-process": dict(
        why="soft synchronisation on the process backend with mobility traces and a "
            "checkpoint every 5th round: stale-update repair, Fig. 7 assignment, writes",
        config=dict(
            num_participants=8, backend="process", num_workers=NUM_WORKERS,
            staleness_mix=(0.3, 0.4, 0.2, 0.1), staleness_policy="compensate",
            mobility_modes=("foot", "bus", "car", "train"), **_SMALL_NET,
        ),
        rounds=300,
        traced_rounds=90,
        checkpoint_every=5,
    ),
}

#: The converged policy puts these operations (indices into
#: ``repro.search_space.PRIMITIVES``: max_pool_3x3, skip_connect,
#: sep_conv_3x3, dil_conv_3x3) on the edges, in this order for every
#: seed: which operation lands on a stride-2 edge changes the work per
#: step by ~20 %, which would read as run-to-run noise.  The seed still
#: sets data, initial weights, cohorts and batches.
CONVERGED_OPS = (1, 3, 4, 6)


def build_config(name: str, seed: int):
    from repro import ExperimentConfig

    return ExperimentConfig(seed=seed, **WORKLOADS[name]["config"])


def prepare(name: str, pipeline) -> None:
    """State the driver sets before round 0 (public API only)."""
    if not WORKLOADS[name].get("converged"):
        return
    import numpy as np

    alpha = np.zeros_like(pipeline.policy.alpha)
    edges = alpha.shape[1]
    for slot in range(alpha.shape[0] * edges):
        alpha[slot // edges, slot % edges, CONVERGED_OPS[slot % len(CONVERGED_OPS)]] = 25.0
    pipeline.policy.load(alpha)


def tasks_per_round(config) -> int:
    return config.cohort_size if config.population else config.num_participants
