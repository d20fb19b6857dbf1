"""On-device training memory of one local step at Table I geometry.

Alg. 1's local step (build the sub-model, one forward/backward, return
``(reward, grad)``) is what a participant's device runs, and its peak
memory is what federated NAS is priced by on device.  This bench takes
the traced peak (``tracemalloc``) of one local step on
``ExperimentConfig.paper()``'s
supernet (Table I: 32x32 inputs, 16 initial channels, 8 cells of 4
steps) at batch 4, for a few seeded masks, and reports it per sample.

The bound is ROADMAP item 12's target: at most 40 MiB per sample.  The
autograd graph keeps only what each backward reads (a conv's padded
input, a batch norm's centred input and std, a relu's mask, a pool's
winning taps), so forward values the backward never reads die as the
forward drops them.

The per-process model is built before tracing starts and the conv/pool
workspace is emptied, so the peak is the step's own, from a cold
workspace.  Results go to ``benchmarks/results/step_memory.txt``.

Run: ``PYTHONPATH=src python -m pytest benchmarks/test_step_memory.py``
(about 10 s on a 2-core host; it uses no pytest-benchmark fixture).
"""

import gc
import os
import time
import tracemalloc

import numpy as np
from conftest import save_result

import repro.nn as nn
from repro import ExperimentConfig
from repro.controller import ArchitecturePolicy
from repro.data import synth_cifar10
from repro.federated import compiled
from repro.federated.participant import LocalStepTask, run_local_step
from repro.nn import tape
from repro.search_space import Supernet

BATCH = 4
MASK_SEEDS = (0, 1, 2)
#: ROADMAP item 12: on-device training memory per sample.
TARGET_MIB_PER_SAMPLE = 40.0


def _traced_step(task, dataset, config):
    """Traced peak bytes and wall time of one local step of ``task``."""
    compiled.reset_cache()
    tape.reset_stats()
    compiled._model_for(config, tape.settings())  # built outside the trace
    vars(nn.functional._WORKSPACE).clear()  # cold workspace: worst case
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        run_local_step(task, dataset, BATCH, config)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tape.stats().steps == 1
    return peak, elapsed


def test_step_memory():
    experiment = ExperimentConfig.paper()
    config = experiment.supernet_config()
    dataset, _ = synth_cifar10(
        seed=0, train_per_class=1, test_per_class=1, image_size=experiment.image_size
    )
    net = Supernet(config, rng=np.random.default_rng(0))
    rows = []
    try:
        for seed in MASK_SEEDS:
            mask = ArchitecturePolicy(
                config.num_edges, rng=np.random.default_rng(seed)
            ).sample_mask()
            task = LocalStepTask(
                participant_id=0,
                round_index=0,
                mask=mask,
                state={k: np.array(v) for k, v in net.submodel_state(mask).items()},
                batch_seed=seed,
            )
            peak, elapsed = _traced_step(task, dataset, config)
            rows.append((seed, peak / 2**20, elapsed))
    finally:
        compiled.reset_cache()
        tape.reset_stats()
        vars(nn.functional._WORKSPACE).clear()

    worst = max(mib for _, mib, _ in rows) / BATCH
    lines = [
        f"Local-step memory: one step on ExperimentConfig.paper()'s "
        f"supernet (init_channels={config.init_channels}, "
        f"num_cells={config.num_cells}, steps={config.steps}, "
        f"{experiment.image_size}x{experiment.image_size} inputs), batch {BATCH}, "
        f"float64, tracemalloc peak",
        f"(host cpu_count={os.cpu_count()})",
        "",
        f"{'mask seed':>9} {'peak MiB':>10} {'MiB/sample':>11} {'step s':>8}",
    ]
    for seed, mib, elapsed in rows:
        lines.append(f"{seed:>9} {mib:>10.1f} {mib / BATCH:>11.1f} {elapsed:>8.2f}")
    lines += [
        "",
        f"worst: {worst:.1f} MiB/sample "
        f"(ROADMAP item 12 target <= {TARGET_MIB_PER_SAMPLE:.0f})",
    ]
    save_result("step_memory", lines)
    assert worst <= TARGET_MIB_PER_SAMPLE, (
        f"local step holds {worst:.1f} MiB/sample at Table I geometry, "
        f"target {TARGET_MIB_PER_SAMPLE:.0f}"
    )
