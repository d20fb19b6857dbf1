#!/usr/bin/env python
"""Tour of the networked participant runtime (``repro.transport``).

Starts two worker daemons the way an operator would — ``python -m repro
serve`` subprocesses on OS-assigned localhost ports — then points a
short federated search at them with ``backend="socket"`` and explicit
``socket_workers`` addresses.  Afterwards it prints what moved on the
wire (measured bytes, task RTTs, per-round traffic) and shows that the
daemons survive the run: the backend disconnects from external workers
on close instead of shutting them down.  The run is traced
(``tracing_enabled`` + ``trace_ops``): afterwards it prints the
critical-path blame per round and exports a Chrome/Perfetto trace —
the equivalent of ``python -m repro trace run.jsonl --chrome out.json``.

Everything here also works with zero configuration: drop the
``socket_workers`` line and the backend spawns and manages local
daemons by itself.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.core import ExperimentConfig, FederatedModelSearch  # noqa: E402
from repro.telemetry import (  # noqa: E402
    Telemetry,
    export_chrome_trace,
    load_events,
    summarize_trace,
)
from repro.transport import READY_PREFIX  # noqa: E402


def start_daemon() -> tuple:
    """``python -m repro serve --port 0`` → (process, "host:port")."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--idle-timeout", "120"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()  # REPRO-WORKER-READY <host> <port>
    assert line.startswith(READY_PREFIX), line
    _, host, port = line.split()
    return proc, f"{host}:{port}"


def main() -> None:
    print("starting two worker daemons ...")
    daemons = [start_daemon() for _ in range(2)]
    addresses = tuple(address for _, address in daemons)
    for proc, address in daemons:
        print(f"  worker pid={proc.pid} at {address}")

    log_path = Path(tempfile.mkdtemp(prefix="repro-tour-")) / "run.jsonl"
    config = ExperimentConfig.small(
        seed=0,
        num_participants=4,
        warmup_rounds=1,
        search_rounds=4,
        retrain_epochs=1,
        backend="socket",
        socket_workers=addresses,
        measure_wire_bytes=True,  # exact blob sizes alongside Fig. 7 estimate
        tracing_enabled=True,  # cross-process spans on every task
        trace_ops=True,  # per-op forward profile on the workers
        telemetry_log_path=str(log_path),
    )
    pipeline = FederatedModelSearch(config)
    print(f"\nsearching over {addresses} (backend={pipeline.backend.name}) ...")
    start = time.perf_counter()
    try:
        report = pipeline.run(retrain_mode="centralized")
    finally:
        pipeline.close()  # disconnects; external daemons stay up
    print(f"done in {time.perf_counter() - start:.1f}s wall clock")
    print(f"test accuracy: {report.test_accuracy:.4f}")

    # ------------------------------------------------------------------
    # What moved on the wire, from the telemetry the backend recorded.
    # ------------------------------------------------------------------
    metrics = report.metrics or {}
    sent = metrics.get("transport.bytes_sent", {}).get("value", 0)
    received = metrics.get("transport.bytes_received", {}).get("value", 0)
    rtt = metrics.get("transport.task_rtt_s", {})
    print("\nwire traffic:")
    print(f"  sent:     {sent / 1e3:,.1f} kB (tasks, frames + headers)")
    print(f"  received: {received / 1e3:,.1f} kB (updates)")
    if rtt.get("count"):
        print(
            f"  task RTT: mean {rtt['mean'] * 1e3:.1f} ms over "
            f"{rtt['count']} tasks (max {rtt['max'] * 1e3:.1f} ms)"
        )
    wire = metrics.get("transmission.wire_bytes", {})
    if wire.get("count"):
        print(
            f"  measured sub-model payload: mean {wire['mean'] / 1e3:.1f} kB "
            f"(exact blob size; analytic estimate "
            f"{report.mean_submodel_bytes / 1e3:.1f} kB)"
        )

    # ------------------------------------------------------------------
    # Delta dispatch: how much of the dispatched state the worker-side
    # caches absorbed (full syncs are first contact / resync rounds).
    # ------------------------------------------------------------------
    shipped = int(metrics.get("dispatch.delta_params", {}).get("value", 0))
    cached = int(metrics.get("dispatch.cached_params", {}).get("value", 0))
    full_syncs = int(metrics.get("dispatch.full_syncs", {}).get("value", 0))
    misses = int(metrics.get("dispatch.cache_misses", {}).get("value", 0))
    total = shipped + cached
    if total:
        print("\ndelta dispatch:")
        print(f"  params shipped: {shipped:,} of {total:,} dispatched")
        print(f"  served from worker caches: {cached:,} "
              f"({100.0 * cached / total:.1f}% cache hit)")
        print(f"  full syncs: {full_syncs}, cache misses: {misses}")

    # ------------------------------------------------------------------
    # Distributed tracing: merge the worker spans back out of the run
    # log, show where each round's wall time went, and export a Chrome
    # trace (same as `python -m repro trace run.jsonl --chrome out.json`).
    # ------------------------------------------------------------------
    pipeline.telemetry.close()  # flush the JSONL sink
    events = load_events(log_path)
    summary = summarize_trace(events)
    critical = summary.get("critical_path")
    if critical:
        blame = critical["blame"]
        print("\ncritical path blame across traced rounds:")
        for part, fraction in sorted(
            blame.items(), key=lambda kv: kv[1], reverse=True
        ):
            print(f"  {part:<9} {100.0 * fraction:5.1f}%")
        slowest = max(critical["rounds"], key=lambda r: r["wall_s"])
        print(
            f"  slowest round: {slowest['phase']} round {slowest['round']} "
            f"({slowest['wall_s'] * 1e3:.0f} ms, critical task on worker "
            f"{slowest['worker']})"
        )
    if summary.get("ops"):
        hottest = summary["ops"][0]
        print(
            f"hottest op: {hottest['op']} [{hottest['shape']}] — "
            f"{hottest['count']} calls, "
            f"{hottest['total_s'] * 1e3:.1f} ms total forward time"
        )
    chrome_path = log_path.with_suffix(".chrome.json")
    with open(chrome_path, "w") as handle:
        json.dump(export_chrome_trace(events), handle)
    print(f"chrome trace written to {chrome_path} "
          f"(open in chrome://tracing or ui.perfetto.dev)")

    # ------------------------------------------------------------------
    # The daemons are still alive — close() never shuts down workers it
    # did not spawn.  An operator stops them explicitly.
    # ------------------------------------------------------------------
    print("\ndaemon status after close():")
    for proc, address in daemons:
        state = "alive" if proc.poll() is None else f"exited({proc.poll()})"
        print(f"  {address}: {state}")
    for proc, _ in daemons:
        proc.send_signal(signal.SIGTERM)
    for proc, _ in daemons:
        proc.wait(timeout=10)
    print("daemons stopped.")

    grouping_demo()


def grouping_demo() -> None:
    """Compiled compute engine: same-mask tasks run as one stacked step.

    Every local step runs eagerly on its thread's reusable model.  On
    the serial backend, untraced tasks of a round that share a mask (and
    so the same weights) run as one step with their batches stacked, in
    chunks of at most four; each member's update is bit for bit its lone
    step's.  Masks repeat in the late-search steady state, when the
    controller has converged: this demo times rounds of a converged
    policy against rounds of a fresh one on the same participants.
    """
    import numpy as np

    from repro.controller import ArchitecturePolicy
    from repro.data import iid_partition, synth_cifar10
    from repro.federated import FederatedSearchServer, Participant, SerialBackend
    from repro.nn import tape
    from repro.search_space import Supernet, SupernetConfig

    print("\ncompiled compute engine (grouped steps) demo:")
    net = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)

    def server(converged):
        rng = np.random.default_rng(0)
        train, _ = synth_cifar10(
            seed=1, train_per_class=20, test_per_class=2, image_size=8
        )
        shards = iid_partition(train, 8, rng=np.random.default_rng(0))
        parts = [
            Participant(k, s, batch_size=8, rng=np.random.default_rng(100 + k))
            for k, s in enumerate(shards)
        ]
        srv = FederatedSearchServer(
            Supernet(net, rng=rng),
            ArchitecturePolicy(net.num_edges, rng=rng),
            parts,
            rng=rng,
            backend=SerialBackend(parts, net),
        )
        if converged:
            # Late-search stand-in: one op dominates, so masks repeat.
            srv.policy.alpha[:] = 0.0
            srv.policy.alpha[..., 2] = 25.0
        return srv

    rounds = 3
    for label, converged in (("fresh policy", False), ("converged policy", True)):
        srv = server(converged)
        try:
            srv.run(1)  # builds the per-process model
            tape.reset_stats()
            start = time.perf_counter()
            srv.run(rounds)
            per_round = (time.perf_counter() - start) / rounds
        finally:
            srv.backend.close()
        print(f"  {label:<17} {per_round * 1e3:8.1f} ms/round  "
              f"({tape.stats().steps // rounds} local steps per round)")


if __name__ == "__main__":
    main()
