"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): the median of each side, the
ratio B ÷ A, and ``ok`` / ``regressed`` / ``unresolved``.  A metric is
``regressed`` when B is worse than A by more than its bound, and
``unresolved`` when the run-to-run spread of either side (quartile
distance over median, from ``run.py --repeat``) is wider than the bound,
unless every run of B reads better than every run of A.  Exits 1 when
any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: the end-to-end metrics BENCHMARK.json cannot bound (see README):
#: name -> (better, bound, whether the bound is a share of A or absolute)
EXTRA_BOUNDS = {
    "wire_bytes_per_round": ("lower", 0.01, "relative"),
    "failed_share": ("lower", 0.0, "absolute"),
    "reward_tail_mean": ("higher", 0.02, "absolute"),
}


def bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    table = {
        entry["name"]: (entry["better"], entry["bound"], "relative")
        for entry in contract["end_to_end"]
    }
    table.update(EXTRA_BOUNDS)
    return table


def samples(results: dict, workload: str, metric: str) -> list:
    values = [run["workloads"][workload]["end_to_end"][metric] for run in results["runs"]]
    return [v for v in values if v is not None]


def spread(values: list) -> float:
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def judge(a: list, b: list, better: str, bound: float, kind: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base, new = statistics.median(a), statistics.median(b)
    worse_by = sign * (new - base)
    if kind == "relative":
        worse_by /= abs(base)
        if max(spread(a), spread(b)) > bound:
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            return "ok" if all_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    print(f"A: {argv[0]}  commit {a['header']['commit'][:12]}  runs {len(a['runs'])}")
    print(f"B: {argv[1]}  commit {b['header']['commit'][:12]}  runs {len(b['runs'])}")
    print(f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>8}  status")
    regressed = 0
    for workload in a["runs"][0]["workloads"]:
        for metric, (better, bound, kind) in bounds().items():
            va, vb = samples(a, workload, metric), samples(b, workload, metric)
            if not va and not vb:
                print(f"{workload:<18} {metric:<22} {'null':>12} {'null':>12} {'':>8} {'':>8}  ok")
                continue
            if not va or not vb:
                status, ratio = "regressed", float("nan")
            else:
                status = judge(va, vb, better, bound, kind)
                base, new = statistics.median(va), statistics.median(vb)
                ratio = new / base if base else (1.0 if new == 0 else float("inf"))
            regressed += status == "regressed"
            shown = f"{bound:.0%}" if kind == "relative" else f"{bound:g} abs"
            left = f"{statistics.median(va):.6g}" if va else "null"
            right = f"{statistics.median(vb):.6g}" if vb else "null"
            print(f"{workload:<18} {metric:<22} {left:>12} {right:>12} "
                  f"{ratio:>8.4f} {shown:>8}  {status}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
