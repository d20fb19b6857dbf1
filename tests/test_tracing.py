"""Tests for :mod:`repro.telemetry.tracing`: trace-context propagation,
worker span recording, per-op profiling, clock-offset merging, the
critical-path analyzer, Chrome export, and spans over the socket wire."""

import json
import threading

import numpy as np
import pytest

from repro.controller import ArchitecturePolicy
from repro.core import ExperimentConfig, FederatedModelSearch
from repro.data import iid_partition, synth_cifar10
from repro.federated.executor import SerialBackend
from repro.federated.participant import (
    LocalStepTask,
    Participant,
    run_local_step,
)
from repro.nn.modules import set_forward_hook
from repro.search_space import Supernet, SupernetConfig
from repro.telemetry import (
    OpProfiler,
    SpanRecorder,
    Telemetry,
    TraceContext,
    export_chrome_trace,
    merge_task_spans,
    render_trace,
    summarize_trace,
)
from repro.transport import SocketBackend, WorkerServer, codec

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def build_participants(num=3, seed=0):
    rng = np.random.default_rng(seed)
    train, _ = synth_cifar10(
        seed=0, train_per_class=12, test_per_class=2, image_size=8
    )
    shards = iid_partition(train, num, rng=rng)
    return [
        Participant(k, shard, batch_size=8, rng=np.random.default_rng(k))
        for k, shard in enumerate(shards)
    ]


def make_task(supernet, policy, participant_id=0, seed=7, trace=None):
    mask = policy.sample_mask()
    return LocalStepTask(
        participant_id=participant_id,
        round_index=0,
        mask=mask,
        state=supernet.submodel_state(mask),
        batch_seed=seed,
        trace=trace,
    )


@pytest.fixture()
def rig():
    rng = np.random.default_rng(0)
    supernet = Supernet(TINY, rng=rng)
    policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
    return supernet, policy, build_participants()


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(
            trace_id="abc-123", parent_span_id=7, dispatch_ts=1.25
        )
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert "ops" not in ctx.to_wire()

    def test_ops_flag_travels_only_when_set(self):
        ctx = TraceContext("t", 1, 0.5, profile_ops=True)
        wire = ctx.to_wire()
        assert wire["ops"] == 1
        assert TraceContext.from_wire(wire).profile_ops is True


# ----------------------------------------------------------------------
# SpanRecorder / OpProfiler
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_records_flat_spans(self):
        recorder = SpanRecorder()
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        payload = recorder.payload()
        assert [s[0] for s in payload["spans"]] == ["a", "b"]
        for _, start, duration in payload["spans"]:
            assert start >= 0.0 and duration >= 0.0
        assert payload["total_s"] >= payload["spans"][-1][1]
        assert "ops" not in payload

    def test_abort_discards_and_uninstalls_hook(self):
        recorder = SpanRecorder(profile_ops=True)
        with recorder.span("x"):
            pass
        recorder.abort()
        assert recorder.spans == []
        # the process-global forward hook must be gone
        assert set_forward_hook(None) is None

    def test_profiler_restores_previous_hook(self):
        sentinel_calls = []

        def sentinel(module, args, duration):
            sentinel_calls.append(module)

        previous = set_forward_hook(sentinel)
        try:
            profiler = OpProfiler()
            profiler.install()
            profiler.uninstall()
            assert set_forward_hook(sentinel) is sentinel
        finally:
            set_forward_hook(previous)

    def test_profiler_aggregates_by_op_and_shape(self, rig):
        from repro.federated import compiled

        # The compiled-step cache is process-global: if another test module
        # already stepped this rig's (mask, shape) key, this step would be
        # a replay and profile tape ops instead of modules.
        compiled.reset_cache()
        supernet, policy, participants = rig
        task = make_task(supernet, policy)
        recorder = SpanRecorder(profile_ops=True)
        run_local_step(
            task, participants[0].dataset, 8, TINY, recorder=recorder
        )
        payload = recorder.payload()
        ops = payload["ops"]
        assert ops, "per-op profile is empty"
        names = {row[0] for row in ops}
        assert "Conv2d" in names or "Supernet" in names
        # rows are [op, shape, count, total_s], slowest first
        totals = [row[3] for row in ops]
        assert totals == sorted(totals, reverse=True)
        assert all(row[2] >= 1 for row in ops)
        # hook uninstalled by payload()
        assert set_forward_hook(None) is None


# ----------------------------------------------------------------------
# Clock-offset merging
# ----------------------------------------------------------------------
class TestMergeTaskSpans:
    def test_symmetric_offset(self):
        payload = {"total_s": 1.0, "spans": [["forward", 0.25, 0.5]]}
        merged = merge_task_spans(payload, dispatch_ts=10.0, receive_ts=11.4)
        # rtt 1.4, busy 1.0 -> wire 0.4, offset 10.2
        assert merged["wire_s"] == pytest.approx(0.4)
        assert merged["offset"] == pytest.approx(10.2)
        name, start, duration = merged["spans"][0]
        assert (name, duration) == ("forward", 0.5)
        assert start == pytest.approx(10.45)

    def test_clock_jitter_clamps_to_dispatch(self):
        # worker reports busier than the server bracket: wire clamps to 0
        payload = {"total_s": 5.0, "spans": [["forward", 0.0, 5.0]]}
        merged = merge_task_spans(payload, dispatch_ts=1.0, receive_ts=2.0)
        assert merged["wire_s"] == 0.0
        assert merged["offset"] == 1.0
        assert merged["spans"][0][1] >= 1.0


# ----------------------------------------------------------------------
# Traced local steps are bit-identical
# ----------------------------------------------------------------------
class TestTracedLocalStep:
    def test_phase_spans_and_identical_update(self, rig):
        supernet, policy, participants = rig
        task = make_task(supernet, policy)
        plain = run_local_step(task, participants[0].dataset, 8, TINY)
        recorder = SpanRecorder()
        traced = run_local_step(
            task, participants[0].dataset, 8, TINY, recorder=recorder
        )
        payload = recorder.payload()
        assert [s[0] for s in payload["spans"]] == [
            "build", "forward", "backward", "pack",
        ]
        assert traced.reward == plain.reward
        assert traced.num_samples == plain.num_samples
        for name in plain.gradients:
            np.testing.assert_array_equal(
                plain.gradients[name], traced.gradients[name]
            )
        for name in plain.buffers:
            np.testing.assert_array_equal(
                plain.buffers[name], traced.buffers[name]
            )


# ----------------------------------------------------------------------
# Codec: optional wire fields
# ----------------------------------------------------------------------
class TestCodecTraceFields:
    def test_task_trace_round_trip(self, rig):
        supernet, policy, _ = rig
        ctx = TraceContext("run-1", 3, 0.125, profile_ops=True)
        task = make_task(supernet, policy, trace=ctx)
        decoded, seq = codec.decode_task(codec.encode_task(task, 5))
        assert seq == 5
        assert decoded.trace == ctx

    def test_traceless_bytes_unchanged(self, rig):
        """Tracing-off payloads must be byte-identical to the historical
        wire format: the trace key simply never appears."""
        import dataclasses

        supernet, policy, _ = rig
        task = make_task(supernet, policy)
        traced = dataclasses.replace(
            task, trace=TraceContext("run-1", 1, 0.0)
        )
        plain_bytes = codec.encode_task(task, 1)
        stripped_bytes = codec.encode_task(
            dataclasses.replace(traced, trace=None), 1
        )
        assert plain_bytes == stripped_bytes
        assert codec.encode_task(traced, 1) != plain_bytes

    def test_update_spans_round_trip(self, rig):
        supernet, policy, participants = rig
        task = make_task(supernet, policy)
        update = run_local_step(task, participants[0].dataset, 8, TINY)
        plain_bytes = codec.encode_update(update, 9)
        update.spans = {"total_s": 0.5, "spans": [["forward", 0.1, 0.3]]}
        decoded, _ = codec.decode_update(codec.encode_update(update, 9))
        assert decoded.spans == update.spans
        update.spans = None
        assert codec.encode_update(update, 9) == plain_bytes


# ----------------------------------------------------------------------
# Serial backend emits trace.task
# ----------------------------------------------------------------------
class TestSerialTracing:
    def test_trace_task_events(self, rig):
        supernet, policy, participants = rig
        telemetry = Telemetry()
        telemetry.tracing = True
        backend = SerialBackend(participants, TINY, telemetry=telemetry)
        ctx = TraceContext(
            telemetry.trace_id, 0, telemetry.now(), profile_ops=False
        )
        tasks = [
            make_task(supernet, policy, participant_id=k, seed=k, trace=ctx)
            for k in range(3)
        ]
        results = backend.run_tasks(tasks)
        assert all(r.ok for r in results)
        traced = [
            e for e in telemetry.events() if e["event"] == "trace.task"
        ]
        assert len(traced) == 3
        for event in traced:
            assert event["worker"] == "local"
            assert event["trace_id"] == telemetry.trace_id
            assert event["receive_ts"] >= event["dispatch_ts"]
            names = [s[0] for s in event["spans"]]
            assert names == ["build", "forward", "backward", "pack"]
            for _, start, _ in event["spans"]:
                assert start >= event["dispatch_ts"]

    def test_untraced_tasks_emit_nothing(self, rig):
        supernet, policy, participants = rig
        telemetry = Telemetry()
        backend = SerialBackend(participants, TINY, telemetry=telemetry)
        results = backend.run_tasks([make_task(supernet, policy)])
        assert results[0].ok and results[0].update.spans is None
        assert not [
            e for e in telemetry.events() if e["event"] == "trace.task"
        ]


# ----------------------------------------------------------------------
# Socket: every daemon honours trace contexts
# ----------------------------------------------------------------------
class TestSocketInterop:
    def _run_round(self):
        server = WorkerServer(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        telemetry = Telemetry()
        telemetry.tracing = True
        rng = np.random.default_rng(0)
        supernet = Supernet(TINY, rng=rng)
        policy = ArchitecturePolicy(TINY.num_edges, rng=rng)
        participants = build_participants()
        backend = SocketBackend(
            participants,
            TINY,
            workers=[f"{server.host}:{server.port}"],
            telemetry=telemetry,
        )
        ctx = TraceContext(telemetry.trace_id, 0, 0.0)
        tasks = [
            make_task(supernet, policy, participant_id=k, seed=k, trace=ctx)
            for k in range(3)
        ]
        try:
            results = backend.run_tasks(tasks)
        finally:
            backend.close()
            server.stop()
            thread.join(timeout=5)
        traced = [
            e for e in telemetry.events() if e["event"] == "trace.task"
        ]
        return results, traced

    def test_tracing_worker_returns_spans(self):
        results, traced = self._run_round()
        assert all(r.ok for r in results)
        assert len(traced) == 3
        assert all(e["spans"] for e in traced)


# ----------------------------------------------------------------------
# Critical path + Chrome export
# ----------------------------------------------------------------------
def synthetic_round_events():
    return [
        {"event": "round_start", "round": 0, "phase": "search", "ts": 1.0},
        {
            "event": "trace.task", "round": 0, "participant": 0,
            "worker": "w0", "dispatch_ts": 1.1, "receive_ts": 1.6,
            "busy_s": 0.4, "wire_s": 0.1,
            "spans": [["forward", 1.15, 0.4]],
        },
        {
            "event": "trace.task", "round": 0, "participant": 1,
            "worker": "w1", "dispatch_ts": 1.2, "receive_ts": 2.8,
            "busy_s": 1.2, "wire_s": 0.4,
            "spans": [["forward", 1.4, 1.2]],
            "ops": [["Conv2d", "8x3x8x8", 4, 0.9]],
        },
        {"event": "round_end", "round": 0, "phase": "search", "ts": 3.0,
         "duration_s": 0.0},
    ]


class TestCriticalPath:
    def test_blame_sums_to_wall(self):
        summary = summarize_trace(synthetic_round_events())
        critical = summary["critical_path"]
        assert critical is not None
        row = critical["rounds"][0]
        # the critical task is the last to land (participant 1)
        assert row["participant"] == 1 and row["worker"] == "w1"
        assert row["wall_s"] == pytest.approx(2.0)
        assert row["wait_s"] == pytest.approx(0.2)
        assert row["compute_s"] == pytest.approx(1.2)
        assert row["wire_s"] == pytest.approx(0.4)
        assert row["aggregate_s"] == pytest.approx(0.2)
        assert (
            row["wait_s"] + row["compute_s"] + row["wire_s"]
            + row["aggregate_s"]
        ) == pytest.approx(row["wall_s"])
        assert sum(critical["blame"].values()) == pytest.approx(1.0)

    def test_render_includes_table_and_ops(self):
        text = render_trace(summarize_trace(synthetic_round_events()))
        assert "Critical path (per round)" in text
        assert "blame:" in text
        assert "Per-op forward profile" in text
        assert "Conv2d" in text

    def test_absent_without_traced_rounds(self):
        events = [
            e for e in synthetic_round_events() if e["event"] != "trace.task"
        ]
        summary = summarize_trace(events)
        assert summary["critical_path"] is None
        assert "Critical path" not in render_trace(summary)


class TestChromeExport:
    def test_structure(self):
        doc = export_chrome_trace(synthetic_round_events())
        events = doc["traceEvents"]
        # one thread track per distinct worker
        threads = [
            e for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert {t["args"]["name"] for t in threads} == {
            "worker w0", "worker w1",
        }
        slices = [e for e in events if e.get("ph") == "X"]
        task_slices = [s for s in slices if s["name"].startswith("task ")]
        assert len(task_slices) == 2
        for s in slices:
            assert s["ts"] >= 0 and s["dur"] >= 0
        # JSON-serializable as-is
        json.dumps(doc)

    def test_server_spans_form_track_zero(self):
        events = [
            {"event": "span_end", "span": "search.round", "span_id": 1,
             "ts": 2.0, "duration_s": 1.5},
        ]
        doc = export_chrome_trace(events)
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans[0]["pid"] == 0
        assert spans[0]["ts"] == pytest.approx(0.5e6)
        assert spans[0]["dur"] == pytest.approx(1.5e6)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    @pytest.fixture(scope="class")
    def run_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tracing") / "run.jsonl"
        config = ExperimentConfig.small(
            seed=2,
            tracing_enabled=True,
            warmup_rounds=2,
            search_rounds=3,
            retrain_epochs=1,
            fl_retrain_rounds=2,
            num_participants=3,
            train_per_class=6,
            test_per_class=2,
            telemetry_log_path=str(path),
        )
        pipeline = FederatedModelSearch(config)
        try:
            pipeline.run()
        finally:
            pipeline.close()
        pipeline.telemetry.close()
        return path

    def test_chrome_export_flag(self, run_log, tmp_path, capsys):
        from repro.__main__ import main

        out_path = tmp_path / "chrome.json"
        assert main(["trace", str(run_log), "--chrome", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        workers = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert workers, "no worker tracks in the chrome export"
        assert "Critical path (per round)" in capsys.readouterr().out

    def test_json_flag(self, run_log, capsys):
        from repro.__main__ import main

        assert main(["trace", str(run_log), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["critical_path"]["rounds"]
        assert summary["malformed_lines"] == 0
        assert summary["event_counts"]["trace.task"] >= 1
