"""Tests for :mod:`repro.telemetry`: sinks, metrics, spans, event
ordering, the run-log analyzer, and the end-to-end JSONL contract."""

import json

import numpy as np
import pytest

from repro import ExperimentConfig, FederatedModelSearch
from repro.telemetry import (
    Histogram,
    JsonlFileSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    TeeSink,
    Telemetry,
    build_telemetry,
    load_events,
    render_trace,
    summarize_trace,
)


SMALL_RUN = dict(
    warmup_rounds=2,
    search_rounds=4,
    retrain_epochs=1,
    fl_retrain_rounds=2,
    num_participants=3,
    train_per_class=6,
    test_per_class=2,
    staleness_mix=(0.6, 0.3, 0.1),
    mobility_modes=("bus", "car"),
)


class TestSinks:
    def test_memory_sink_ring_buffer(self):
        sink = MemorySink(capacity=3)
        for i in range(5):
            sink.emit({"seq": i})
        assert len(sink) == 3
        assert [e["seq"] for e in sink.events] == [2, 3, 4]
        assert sink.total_emitted == 5

    def test_memory_sink_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_jsonl_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlFileSink(str(path))
        sink.emit({"event": "a", "value": 1})
        sink.emit({"event": "b", "value": np.float64(2.5)})  # numpy scalars ok
        sink.close()
        events = load_events(str(path))
        assert [e["event"] for e in events] == ["a", "b"]
        assert events[1]["value"] == 2.5

    def test_jsonl_sink_flush_cadence(self, tmp_path):
        """The sink flushes every ``flush_every_events`` events (or bytes)
        so a killed process loses at most one flush window."""
        path = tmp_path / "run.jsonl"
        sink = JsonlFileSink(str(path), flush_every_events=4)
        for i in range(4):
            sink.emit({"seq": i})
        # cadence reached: events are durable without close()
        assert len(load_events(str(path))) == 4
        sink.emit({"seq": 4})
        sink.close()
        assert len(load_events(str(path))) == 5

    def test_jsonl_sink_byte_cadence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlFileSink(str(path), flush_every_events=10_000, flush_every_bytes=64)
        sink.emit({"event": "x" * 80})
        assert len(load_events(str(path))) == 1
        sink.close()

    def test_jsonl_sink_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlFileSink(str(tmp_path / "a.jsonl"), flush_every_events=0)
        with pytest.raises(ValueError):
            JsonlFileSink(str(tmp_path / "b.jsonl"), flush_every_bytes=0)

    def test_jsonl_sink_survives_kill_dash_nine(self, tmp_path):
        """Guarantee: a SIGKILLed process loses at most one flush window
        of events (no buffering cliff)."""
        import os
        import signal
        import subprocess
        import sys
        import time

        path = tmp_path / "killed.jsonl"
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.telemetry.sinks import JsonlFileSink\n"
            "sink = JsonlFileSink(%r, flush_every_events=8)\n"
            "for i in range(10_000_000):\n"
            "    sink.emit({'seq': i})\n"
            "    print(i, flush=True)\n"
        ) % (os.path.join(os.path.dirname(__file__), "..", "src"), str(path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        last = -1
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line.strip().isdigit():
                last = int(line)
            if last >= 100:
                break
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        assert last >= 100, "child never got going"
        durable = load_events(str(path))
        # every line that made it is intact, ordered, and at most one
        # flush window behind what the child reported emitting
        seqs = [e["seq"] for e in durable]
        assert seqs == list(range(len(seqs)))
        assert len(seqs) >= last + 1 - 8

    def test_tee_fans_out(self):
        a, b = MemorySink(), MemorySink()
        tee = TeeSink([a, b])
        tee.emit({"event": "x"})
        assert len(a) == len(b) == 1

    def test_sink_swapping_same_events(self, tmp_path):
        """The same producer code records identically through any sink."""
        path = tmp_path / "run.jsonl"

        def produce(telemetry):
            telemetry.emit("alpha", value=1)
            with telemetry.span("work"):
                telemetry.emit("beta", value=2)

        memory = Telemetry(sink=MemorySink())
        produce(memory)
        file_based = Telemetry(sink=JsonlFileSink(str(path)))
        produce(file_based)
        file_based.close()
        produce(Telemetry(sink=NullSink()))  # must not raise

        from_memory = [
            {k: v for k, v in e.items() if k != "ts"} for e in memory.events()
        ]
        from_file = [
            {k: v for k, v in e.items() if k != "ts"}
            for e in load_events(str(path))
        ]
        # span_end carries a wall-clock duration; drop it before comparing
        for e in from_memory + from_file:
            e.pop("duration_s", None)
        assert from_memory == from_file


class TestLoadEvents:
    def test_skips_malformed_lines_with_count(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"seq": 1, "event": "a"}\n'
            "not json at all\n"
            '{"seq": 2, "event": "b"}\n'
            '{"seq": 3, "event": "c", "tru'  # truncated tail (kill -9)
        )
        with pytest.warns(RuntimeWarning):
            events = load_events(str(path))
        assert [e["seq"] for e in events] == [1, 2]
        assert events.malformed_lines == 2

    def test_non_object_lines_count_as_malformed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 1}\n[1, 2, 3]\n')
        with pytest.warns(RuntimeWarning):
            events = load_events(str(path))
        assert len(events) == 1 and events.malformed_lines == 1

    def test_strict_mode_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 1}\ngarbage\n')
        with pytest.raises(ValueError):
            load_events(str(path), strict=True)

    def test_malformed_count_surfaces_in_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 1, "event": "a", "ts": 0.0}\n{"broken')
        with pytest.warns(RuntimeWarning):
            events = load_events(str(path))
        summary = summarize_trace(events)
        assert summary["malformed_lines"] == 1
        assert "malformed" in render_trace(summary)


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("updates").inc()
        registry.counter("updates").inc(2)
        registry.gauge("round").set(7)
        snap = registry.snapshot()
        assert snap["updates"] == {"type": "counter", "value": 3.0}
        assert snap["round"] == {"type": "gauge", "value": 7.0}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_name_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_histogram_quantiles_match_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        hist = Histogram("h")
        for v in values:
            hist.observe(v)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == pytest.approx(
                float(np.quantile(values, q)), abs=1e-12
            )
        snap = hist.snapshot()
        assert snap["count"] == 500
        assert snap["mean"] == pytest.approx(float(values.mean()))
        assert snap["min"] == pytest.approx(float(values.min()))
        assert snap["max"] == pytest.approx(float(values.max()))
        assert snap["p95"] == pytest.approx(float(np.quantile(values, 0.95)))

    def test_histogram_reservoir_keeps_exact_aggregates(self):
        hist = Histogram("h", max_samples=64)
        values = np.arange(1000, dtype=float)
        for v in values:
            hist.observe(v)
        assert hist.count == 1000
        assert hist.sum == pytest.approx(values.sum())
        assert hist.min == 0.0 and hist.max == 999.0
        # Algorithm R keeps exactly max_samples once the stream exceeds it
        assert len(hist._samples) == 64
        # reservoir quantiles stay plausible on a uniform ramp — the
        # median of 64 uniform samples has sd ≈ 62, so allow ~3σ
        assert hist.quantile(0.5) == pytest.approx(500.0, abs=200.0)
        assert hist.quantile(0.95) > hist.quantile(0.5)

    def test_histogram_reservoir_is_deterministic_per_name(self):
        """The reservoir RNG is seeded by the histogram *name*, never the
        global RNG: two identically-fed histograms agree exactly, and
        observing never perturbs ``random``'s global state."""
        import random

        values = np.arange(500, dtype=float)
        a, b = Histogram("span.round", max_samples=32), Histogram(
            "span.round", max_samples=32
        )
        random.seed(123)
        before = random.getstate()
        for v in values:
            a.observe(v)
            b.observe(v)
        assert random.getstate() == before
        assert a._samples == b._samples
        # a different name draws a different (but equally deterministic)
        # sample sequence
        c = Histogram("other", max_samples=32)
        for v in values:
            c.observe(v)
        assert c.snapshot()["count"] == a.snapshot()["count"]

    def test_histogram_ignores_nan(self):
        hist = Histogram("h")
        hist.observe(float("nan"))
        hist.observe(1.0)
        assert hist.count == 1

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0.0
        assert all(np.isnan(snap[k]) for k in ("mean", "min", "max", "p50", "p95"))


class TestEventsAndSpans:
    def test_sequence_numbers_are_ordered(self):
        telemetry = Telemetry()
        for i in range(10):
            telemetry.emit("tick", i=i)
        events = telemetry.events()
        assert [e["seq"] for e in events] == list(range(1, 11))
        assert all(
            a["ts"] <= b["ts"] for a, b in zip(events, events[1:])
        )

    def test_span_nesting_depths(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            assert telemetry.current_span == "outer"
            with telemetry.span("inner"):
                assert telemetry.current_span == "inner"
            assert telemetry.current_span == "outer"
        assert telemetry.current_span is None
        by_name = {
            (e["event"], e["span"]): e for e in telemetry.events()
        }
        assert by_name[("span_start", "outer")]["depth"] == 0
        assert by_name[("span_start", "inner")]["depth"] == 1
        assert by_name[("span_end", "inner")]["duration_s"] >= 0.0
        assert "span.outer" in telemetry.metrics
        assert "span.inner" in telemetry.metrics

    def test_span_exception_safety(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("doomed"):
                raise RuntimeError("boom")
        assert telemetry.current_span is None
        end = [e for e in telemetry.events() if e["event"] == "span_end"][0]
        assert end["span"] == "doomed" and end["error"] is True
        assert telemetry.metrics.histogram("span.doomed").count == 1

    def test_disabled_telemetry_is_inert(self):
        telemetry = Telemetry.disabled()
        telemetry.emit("tick")
        telemetry.count("c")
        telemetry.observe("h", 1.0)
        telemetry.gauge("g", 2.0)
        with telemetry.span("s"):
            pass
        assert telemetry.events() == []
        assert telemetry.metrics_snapshot() == {}

    def test_build_telemetry_from_config(self, tmp_path):
        config = ExperimentConfig.small()
        assert build_telemetry(config).enabled
        config = ExperimentConfig.small(telemetry_enabled=False)
        assert not build_telemetry(config).enabled
        path = tmp_path / "log.jsonl"
        config = ExperimentConfig.small(telemetry_log_path=str(path))
        telemetry = build_telemetry(config)
        telemetry.emit("tick")
        telemetry.close()
        assert len(load_events(str(path))) == 1


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
        config = ExperimentConfig.small(
            seed=3, telemetry_log_path=str(path), **SMALL_RUN
        )
        pipeline = FederatedModelSearch(config)
        report = pipeline.run()
        pipeline.telemetry.close()
        return report, load_events(str(path))

    def test_log_is_parseable_and_ordered(self, run):
        _, events = run
        assert events, "run log is empty"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_round_events_match_round_results(self, run):
        report, events = run
        results = report.warmup_results + report.search_results
        round_ends = [e for e in events if e["event"] == "round_end"]
        assert len(round_ends) == len(results)
        for event, result in zip(round_ends, results):
            assert event["round"] == result.round_index
            assert event["num_fresh"] == result.num_fresh
            assert event["num_stale_used"] == result.num_stale_used
            assert event["num_dropped"] == result.num_dropped

    def test_arrival_outcomes_match_counters(self, run):
        report, events = run
        results = report.warmup_results + report.search_results
        arrivals = [e for e in events if e["event"] == "arrival"]
        fresh = sum(1 for e in arrivals if e["outcome"] == "fresh")
        stale = sum(1 for e in arrivals if e["outcome"].startswith("stale"))
        dropped = sum(1 for e in arrivals if e["outcome"] == "dropped")
        assert fresh == sum(r.num_fresh for r in results)
        assert stale == sum(r.num_stale_used for r in results)
        assert dropped == sum(r.num_dropped for r in results)

    def test_phases_bracketed(self, run):
        _, events = run
        started = [e["phase"] for e in events if e["event"] == "phase_start"]
        ended = [e["phase"] for e in events if e["event"] == "phase_end"]
        assert started == ended == ["warmup", "search", "retrain", "evaluate"]

    def test_metrics_snapshot_attached(self, run):
        report, _ = run
        assert report.metrics["rounds.total"]["value"] == len(
            report.warmup_results
        ) + len(report.search_results)
        assert report.metrics["span.search.round"]["count"] == len(
            report.warmup_results
        ) + len(report.search_results)
        assert report.metrics["round.duration_s"]["p95"] >= 0.0

    def test_trace_summary(self, run):
        _, events = run
        summary = summarize_trace(events)
        assert [p["phase"] for p in summary["phases"]] == [
            "warmup", "search", "retrain", "evaluate",
        ]
        assert sum(summary["staleness"].values()) == len(
            [e for e in events if e["event"] == "arrival"]
        )
        assert len(summary["rounds"]) == len(
            [e for e in events if e["event"] == "round_end"]
        )
        text = render_trace(summary)
        assert "Per-phase time breakdown" in text
        assert "Staleness histogram" in text
        assert "Per-round summary" in text
        assert "tau=0" in text

    def test_trace_transport_section(self, run):
        """``transport.round`` events (socket backend) get a wire-traffic
        section; runs without them render none."""
        _, events = run
        # Without transport.round events there is no section; the
        # recorded socket run in tests/golden_trace/ renders a real one
        # ("Wire traffic" in render_default.txt).
        plain = [e for e in events if e.get("event") != "transport.round"]
        assert "Wire traffic" not in render_trace(summarize_trace(plain))

        synthetic = list(plain) + [
            {
                "event": "transport.round",
                "round": r,
                "workers_live": 2 - r,
                "tasks": 3,
                "failed": r,
                "bytes_sent": 1000.0 * (r + 1),
                "bytes_received": 500.0,
            }
            for r in range(2)
        ]
        summary = summarize_trace(synthetic)
        assert summary["transport"]["bytes_sent_total"] == 3000.0
        assert summary["transport"]["tasks_total"] == 6
        assert summary["transport"]["failed_total"] == 1
        assert summary["transport"]["min_workers_live"] == 1
        text = render_trace(summary)
        assert "Wire traffic" in text
        assert "kB_sent" in text

    def test_trace_cli(self, run, tmp_path, capsys):
        from repro.__main__ import main

        _, events = run
        path = tmp_path / "cli.jsonl"
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase time breakdown" in out
        assert "Slowest participants" in out


class TestDeterminism:
    def test_telemetry_does_not_perturb_results(self):
        """Seeded results must be bit-identical with telemetry on or off."""
        on = FederatedModelSearch(
            ExperimentConfig.small(seed=11, **SMALL_RUN)
        ).run()
        off = FederatedModelSearch(
            ExperimentConfig.small(seed=11, telemetry_enabled=False, **SMALL_RUN)
        ).run()
        assert on.genotype == off.genotype
        assert on.test_accuracy == off.test_accuracy
        assert on.model_parameters == off.model_parameters
        assert on.simulated_search_time_s == off.simulated_search_time_s
        assert on.mean_submodel_bytes == off.mean_submodel_bytes
        for a, b in zip(
            on.warmup_results + on.search_results,
            off.warmup_results + off.search_results,
        ):
            assert dataclasses_equal(a, b)
        assert off.metrics == {}

    def test_same_seed_same_report(self):
        """Two telemetry-enabled runs with one seed agree exactly."""
        first = FederatedModelSearch(
            ExperimentConfig.small(seed=5, **SMALL_RUN)
        ).run()
        second = FederatedModelSearch(
            ExperimentConfig.small(seed=5, **SMALL_RUN)
        ).run()
        assert first.genotype == second.genotype
        assert first.test_accuracy == second.test_accuracy
        # metric values derived from simulation state (not wall clock)
        # must agree too
        for name in ("reward", "update.staleness", "submodel.bytes"):
            assert first.metrics[name] == second.metrics[name]


def dataclasses_equal(a, b) -> bool:
    import dataclasses

    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and np.isnan(va) and np.isnan(vb):
            continue
        if va != vb:
            return False
    return True
