"""Execution-backend scaling: process workers vs serial on 8 participants.

The process backend exists to overlap participant local-step latency:
in a real deployment each round waits on the slowest of K devices, and
a set of workers turns K sequential waits into ceil(K / workers)
overlapped ones.  On this harness local steps are numpy compute, so raw
speedup tracks the machine's core count; to make the benchmark
meaningful on any box (including single-core CI runners) each task
carries an *emulated device latency* — a real ``time.sleep`` standing in
for the device compute time the simulator otherwise only models
virtually.  The serial side sleeps in ``SerialBackend``'s ``fault_hook``
before each task.  The process side sleeps on the wire: a seeded
``NetworkFaultPlan`` latency fault delays every frame the server sends
or reads by half the latency, so a task (one send, one reply read)
carries the full amount.  The fault cannot tell frame types apart, so
the control frames are delayed too: worker registration (two requests
per worker) happens before the clock starts, and the per-round
heartbeats (one request per worker, in sequence) stay inside the timed
rounds, which only makes the process side slower.

Shape claims:

* the process backend with 4 workers beats SerialBackend wall-clock on
  the 8-participant round loop (ISSUE 2 acceptance criterion),
* both backends produce bit-identical search trajectories (α must match
  element-for-element after the timed rounds).
"""

import os
import time

import numpy as np
from conftest import run_once, save_result

from harness import BENCH_NET, bench_dataset, bench_shards
from repro.controller import ArchitecturePolicy
from repro.faults import NetworkFaultPlan, NetworkFaultSpec
from repro.federated import (
    FederatedSearchServer,
    Participant,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.search_space import Supernet

PARTICIPANTS = 8
WORKERS = 4
ROUNDS = 3
EMULATED_LATENCY_S = 0.25


def emulate_device_latency(task):
    """Stand-in for on-device compute time."""
    time.sleep(EMULATED_LATENCY_S)


#: The same latency on the wire: half on the task frame, half on the
#: reply read.
WIRE_LATENCY = NetworkFaultPlan(
    seed=0,
    faults=(NetworkFaultSpec("latency", latency_s=EMULATED_LATENCY_S / 2),),
)


def timed_search(backend_name):
    rng = np.random.default_rng(0)
    train, _ = bench_dataset(train_per_class=20)
    shards = bench_shards(train, PARTICIPANTS, seed=0)
    participants = [
        Participant(k, shard, batch_size=16, rng=np.random.default_rng(100 + k))
        for k, shard in enumerate(shards)
    ]
    if backend_name == "process":
        backend = ProcessPoolBackend(
            participants,
            BENCH_NET,
            num_workers=WORKERS,
            network_fault_plan=WIRE_LATENCY,
        )
    else:
        backend = SerialBackend(
            participants, BENCH_NET, fault_hook=emulate_device_latency
        )
    server = FederatedSearchServer(
        Supernet(BENCH_NET, rng=rng),
        ArchitecturePolicy(BENCH_NET.num_edges, rng=rng),
        participants,
        rng=rng,
        backend=backend,
    )
    try:
        # Register the workers before the clock starts (a no-op on
        # serial): their hello/init frames carry the emulated latency too.
        backend.run_tasks([])
        start = time.perf_counter()
        server.run(ROUNDS)
        elapsed = time.perf_counter() - start
    finally:
        backend.close()
    return elapsed, server.policy.alpha.copy()


def test_backend_scaling(benchmark):
    def reproduce():
        serial_s, serial_alpha = timed_search("serial")
        process_s, process_alpha = timed_search("process")
        return serial_s, process_s, serial_alpha, process_alpha

    serial_s, process_s, serial_alpha, process_alpha = run_once(
        benchmark, reproduce
    )
    speedup = serial_s / process_s
    lines = [
        f"Backend scaling: {PARTICIPANTS} participants, {ROUNDS} rounds, "
        f"{EMULATED_LATENCY_S:.2f}s emulated device latency per local step",
        f"(host cpu_count={os.cpu_count()}; emulated latency makes the "
        "comparison core-count independent)",
        f"{'backend':<22} {'wall-clock(s)':>14} {'s/round':>10}",
        f"{'serial':<22} {serial_s:14.2f} {serial_s / ROUNDS:10.2f}",
        f"{'process (4 workers)':<22} {process_s:14.2f} {process_s / ROUNDS:10.2f}",
        f"speedup: {speedup:.2f}x",
    ]
    save_result("backend_scaling", lines)

    # The acceptance criterion: the workers overlap device latency.
    assert process_s < serial_s, (
        f"process backend ({process_s:.2f}s) must beat serial "
        f"({serial_s:.2f}s)"
    )
    # Parallelism must not change the search: trajectories bit-identical.
    np.testing.assert_array_equal(serial_alpha, process_alpha)

