"""Smoke test of the round ledger (not part of the tier-1 ``testpaths``).

Run it explicitly: ``python -m pytest benchmarks/ledger/test_smoke.py``.
It drives ``run.py --smoke`` (6 timed rounds per workload, both passes)
and checks the shape of the result, not its numbers.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_run_reports_every_metric_and_passes_every_check():
    out = os.path.join(HERE, "out", "smoke.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "0", "--out", out],
        cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0
    with open(out) as fh:
        results = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert list(results)[-1] == "claim" and results["claim"] is None
    (run,) = results["runs"]
    assert all(run["checks"].values()), run["checks"]
    names = {e["name"] for e in contract["end_to_end"] + contract["per_layer"]}
    assert set(run["workloads"]) == {w["name"] for w in contract["workloads"]}
    for workload, result in run["workloads"].items():
        metrics = {**result["end_to_end"], **result["per_layer"]}
        assert names <= set(metrics), (workload, names - set(metrics))
        for name, value in metrics.items():
            if value is None:
                assert result["null_reasons"][name], (workload, name)
            else:
                assert math.isfinite(value), (workload, name, value)
        assert result["per_layer"]["trace.residual_share"] <= 0.02
        assert result["missing_targets"] == []
    assert (
        run["workloads"]["search-socket"]["digest"]
        == run["workloads"]["search-serial"]["digest"]
    )
