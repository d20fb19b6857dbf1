"""Golden ``repro trace`` outputs: the report is pinned byte for byte.

``golden_trace/run.jsonl`` concatenates short seeded real runs (serial
with staleness and mobility, traced socket with per-op profiles and a
converged-policy tape replay, population with churn, a wire-fault plan)
plus one truncated tail line, so every section of the report has rows.
The expected files beside it were recorded with
``golden_trace/record.py``; any change to the rendered text, the
``--json`` summary or the Chrome export shows up here as a diff.

The report reads fields with defaults, so a renamed ``emit`` would
render zeros rather than fail; the drift tests below scan the source
for ``emit("<name>", ...)`` calls and check them against the names and
fields the report's sections declare.
"""

import ast
import collections
import inspect
import json
import pathlib
import textwrap
import warnings

import pytest

import repro
from repro.telemetry import (
    export_chrome_trace,
    load_events,
    render_trace,
    summarize_trace,
    trace,
)

HERE = pathlib.Path(__file__).with_name("golden_trace")


@pytest.fixture(scope="module")
def events():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return load_events(str(HERE / "run.jsonl"))


def expected(name):
    return (HERE / name).read_text()


@pytest.mark.parametrize(
    "name, kwargs",
    [("render_default.txt", {}), ("render_small.txt", {"top": 2, "max_round_rows": 3})],
)
def test_rendered_text_is_byte_identical(events, name, kwargs):
    assert render_trace(summarize_trace(events), **kwargs) + "\n" == expected(name)


def test_json_summary_is_byte_identical(events):
    text = json.dumps(summarize_trace(events), sort_keys=True) + "\n"
    assert text == expected("summary.json")


def test_chrome_export_is_byte_identical(events):
    assert json.dumps(export_chrome_trace(events)) + "\n" == expected("chrome.json")


def test_fixture_covers_every_section(events):
    """A section with no rows in the fixture would pin nothing."""
    assert events.malformed_lines == 1
    summary = summarize_trace(events)
    for key in (
        "phases", "staleness", "outcomes", "participants", "rounds",
        "population", "transport", "health", "dispatch", "critical_path",
        "ops",
    ):
        assert summary[key], key
    assert "more rounds)" in expected("render_small.txt")


def emit_calls():
    """Event name → the keyword names of each ``emit("<name>", ...)`` call
    under ``src/repro``; None for a call that splats ``**fields``."""
    calls = collections.defaultdict(list)
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = getattr(node.func, "attr", getattr(node.func, "id", None))
            name = node.args[0]
            if func == "emit" and isinstance(getattr(name, "value", None), str):
                keywords = {k.arg for k in node.keywords}
                calls[name.value].append(None if None in keywords else keywords)
    return calls


def test_every_declared_event_is_emitted():
    calls = emit_calls()
    declared = {name for section in trace._SECTIONS for name in section.events}
    # the four names sections only count must stay emitted too
    assert {
        "executor.task_retry", "transport.worker_lost",
        "transport.worker_respawned", "transport.heartbeat_failed",
    } <= declared
    assert not sorted(declared - set(calls)), "declared but never emitted"


def test_per_round_table_fields_are_emitted():
    calls = emit_calls()
    gaps, checked = {}, set()
    for section in trace._SECTIONS:
        for name, fields in section.fields.items():
            for keywords in calls[name]:
                if keywords is None:
                    continue  # **fields: the keys are not visible here
                checked.add(name)
                missing = {key for key, _, _ in fields} - keywords
                if missing:
                    gaps[f"{section.__name__}/{name}"] = sorted(missing)
    assert not gaps, f"fields read but not emitted: {gaps}"
    assert {"round_end", "transport.round", "dispatch.round", "round_start"} <= checked


def test_summarize_trace_has_no_per_event_branch():
    """Events reach sections only through the names they declare."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(trace.summarize_trace)))
    constants = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    declared = {name for section in trace._SECTIONS for name in section.events}
    assert not constants & declared
