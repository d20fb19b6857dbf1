"""Wire bytes per task and per round, pinned to a recorded fixture.

A seeded three-round search on one in-thread :class:`WorkerServer`: one
worker makes dispatch order, and so every delta against its ack map,
deterministic.  ``golden_wire_bytes.json`` holds each task frame's
``transport.payload_bytes`` (in dispatch order) and each round's
``transport.round`` ``bytes_sent`` / ``bytes_received``, so a dispatch
refactor that re-sends, re-orders or re-encodes anything shows here.

``bytes_received`` is stored less the printed length of every reply's
``compute_time_s``: that field is a wall-clock float in the reply's JSON
meta, so its digit count (and nothing else) varies run to run.

Re-record (only ever on purpose):
``PYTHONPATH=src python -m tests.test_wire_bytes``
"""

import json
import pathlib
import threading

import numpy as np

from repro.controller import ArchitecturePolicy
from repro.federated import FederatedSearchServer
from repro.search_space import Supernet
from repro.telemetry import Telemetry
from repro.transport import SocketBackend, WorkerServer

from .test_transport import TINY, build_participants

FIXTURE_PATH = pathlib.Path(__file__).with_name("golden_wire_bytes.json")
ROUNDS = 3
SEED = 0


def measure_wire_bytes() -> dict:
    worker = WorkerServer(port=0)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    telemetry = Telemetry()
    backend = SocketBackend(
        build_participants(),
        TINY,
        workers=[f"{worker.host}:{worker.port}"],
        task_timeout_s=60.0,
        telemetry=telemetry,
    )
    timing_digits = []
    run_tasks = backend.run_tasks

    def recording(tasks):
        results = run_tasks(tasks)
        timing_digits.append(
            sum(len(json.dumps(r.update.compute_time_s)) for r in results if r.ok)
        )
        return results

    backend.run_tasks = recording
    rng = np.random.default_rng(SEED)
    server = FederatedSearchServer(
        Supernet(TINY, rng=rng),
        ArchitecturePolicy(TINY.num_edges, rng=rng),
        build_participants(),
        rng=rng,
        backend=backend,
        telemetry=telemetry,
    )
    try:
        server.run(ROUNDS)
    finally:
        backend.close()
        worker.stop()
        thread.join(timeout=5)
    rounds = [e for e in telemetry.events() if e["event"] == "transport.round"]
    payloads = telemetry.metrics.histogram("transport.payload_bytes")._samples
    return {
        "payload_bytes": [int(size) for size in payloads],
        "rounds": [
            {
                "round": event["round"],
                "tasks": event["tasks"],
                "failed": event["failed"],
                "bytes_sent": event["bytes_sent"],
                "bytes_received_less_timing": event["bytes_received"] - digits,
            }
            for event, digits in zip(rounds, timing_digits)
        ],
    }


def test_wire_bytes_match_the_recorded_fixture():
    recorded = json.loads(FIXTURE_PATH.read_text())
    measured = measure_wire_bytes()
    assert len(measured["rounds"]) == ROUNDS
    assert measured == recorded


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(measure_wire_bytes(), indent=2) + "\n")
    print(FIXTURE_PATH.read_text())
