"""Record the golden ``repro trace`` fixture and its expected outputs.

``run.jsonl`` is a concatenation of short seeded real runs chosen so
that every section of the trace report has rows:

* serial search with a severe staleness mix and bus/car mobility traces;
* socket search with ``--tracing --trace-ops``, then a converged-policy
  server on socket workers whose masks repeat (the recorded log still
  carries the ``tape`` fields and ``tape:<op>`` profile rows of the
  replay engine it ran on; the report ignores the former and lists the
  latter as ops);
* population mode with a churn plan;
* socket search under a seeded wire-fault (chaos) plan;

followed by one truncated line, the tail a killed writer leaves.

The expected files are what :func:`render_trace` (default settings and
``top=2, max_round_rows=3``), ``json.dumps(summarize_trace(...),
sort_keys=True)`` and ``json.dumps(export_chrome_trace(...))`` make of
that log.  ``tests/test_golden_trace.py`` compares all of them byte for
byte, so a refactor of the trace module must leave them untouched.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden_trace/record.py          # outputs only
    PYTHONPATH=src python tests/golden_trace/record.py --runs   # log too

Re-record the outputs only when the report is meant to change (a new
section, a new column), and review the diff of the expected files.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import types
import warnings

HERE = pathlib.Path(__file__).resolve().parent
LOG = HERE / "run.jsonl"
#: (file name, render_trace keyword arguments)
RENDERINGS = (
    ("render_default.txt", {}),
    ("render_small.txt", {"top": 2, "max_round_rows": 3}),
)
SUMMARY = "summary.json"
CHROME = "chrome.json"

SMALL = {
    "retrain_epochs": 1,
    "fl_retrain_rounds": 1,
    "train_per_class": 6,
    "test_per_class": 2,
}
CHURN = {
    "join_rate": 1.0,
    "departure_prob": 0.02,
    "dropout_prob": 0.1,
    "dropout_rounds_min": 1,
    "dropout_rounds_max": 2,
    "seed": 7,
}
NETWORK_FAULTS = {
    "seed": 11,
    "faults": [
        {"kind": "latency", "probability": 0.3, "latency_s": 0.02, "jitter_s": 0.01},
        {"kind": "drop", "probability": 0.05},
    ],
}
COMMON = ["--warmup-rounds", "2", "--search-rounds", "3"]
CLI_RUNS = (
    ["--participants", "3", "--seed", "0", "--staleness", "severe",
     "--mobility", "bus", "car"],
    ["--participants", "3", "--seed", "1", "--backend", "socket",
     "--workers", "2", "--tracing", "--trace-ops"],
    ["--population", "200", "--cohort-size", "4", "--seed", "2",
     "--churn-plan", "{churn}"],
    ["--participants", "4", "--seed", "11", "--backend", "socket",
     "--workers", "2", "--network-faults", "{faults}"],
)


def _cli_run(args, log_path, scratch):
    """One ``python -m repro run`` into ``log_path``."""
    files = {}
    for name, body in (("config", SMALL), ("churn", CHURN), ("faults", NETWORK_FAULTS)):
        files[name] = str(scratch / f"{name}.json")
        pathlib.Path(files[name]).write_text(json.dumps(body))
    argv = [a.format(**files) for a in args]
    env = dict(os.environ, PYTHONPATH=str(HERE.parents[1] / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro", "run", "--config", files["config"],
         *COMMON, *argv, "--telemetry-log", str(log_path)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )


def _converged_socket_run(log_path):
    """A converged policy on socket workers: masks repeat."""
    import numpy as np

    from repro.controller import ArchitecturePolicy
    from repro.data import iid_partition, synth_cifar10
    from repro.federated import FederatedSearchServer, Participant
    from repro.search_space import Supernet, SupernetConfig
    from repro.telemetry import build_telemetry
    from repro.transport import SocketBackend

    telemetry = build_telemetry(types.SimpleNamespace(
        telemetry_enabled=True, telemetry_log_path=str(log_path),
        tracing_enabled=True, trace_ops=True))
    net = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)
    rng = np.random.default_rng(0)
    train, _ = synth_cifar10(seed=1, train_per_class=8, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    parts = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(100 + k))
        for k, s in enumerate(shards)
    ]
    backend = SocketBackend(parts, net, num_workers=1, telemetry=telemetry)
    server = FederatedSearchServer(
        Supernet(net, rng=rng), ArchitecturePolicy(net.num_edges, rng=rng),
        parts, rng=rng, backend=backend, telemetry=telemetry)
    server.policy.alpha[:] = 0.0
    server.policy.alpha[..., 2] = 25.0
    try:
        server.run(3)
    finally:
        backend.close()
        telemetry.close()


def record_log():
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        parts = []
        for index, args in enumerate(CLI_RUNS):
            path = scratch / f"run{index}.jsonl"
            _cli_run(args, path, scratch)
            parts.append(path.read_text())
            if index == 1:
                path = scratch / "converged.jsonl"
                _converged_socket_run(path)
                parts.append(path.read_text())
    text = "".join(parts)
    LOG.write_text(text + '{"event": "round_end", "round": 9, "ph')


def record_outputs():
    from repro.telemetry import (
        export_chrome_trace,
        load_events,
        render_trace,
        summarize_trace,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        events = load_events(str(LOG))
    summary = summarize_trace(events)
    for name, kwargs in RENDERINGS:
        (HERE / name).write_text(render_trace(summary, **kwargs) + "\n")
    (HERE / SUMMARY).write_text(json.dumps(summary, sort_keys=True) + "\n")
    (HERE / CHROME).write_text(json.dumps(export_chrome_trace(events)) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs", action="store_true",
        help="re-run the seeded runs and rewrite run.jsonl first",
    )
    if parser.parse_args().runs:
        record_log()
    record_outputs()


if __name__ == "__main__":
    main()
