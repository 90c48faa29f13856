"""``--compare A.json B.json``: judge ledger B against ledger A.

Each (workload, end-to-end metric) pair gets one row and one verdict,
by the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread between samples on either side is wider
  than the bound, and the two sides' samples overlap, so a difference
  of a bound's size could not be seen either way;
* ``ok``         — neither.

The samples are one value per run when a ledger holds several runs of a
workload (``--runs``; on a noisy box the runs differ more than the
repeats inside one), else the repeats of its single run.

Exact per-layer metrics (counts and the simulated speed-up) must be
identical; any that moved is listed as ``changed``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

# Per-layer metrics with these units are deterministic functions of the
# inputs: a host-side change must not move them.
EXACT_UNITS = frozenset({"count", "x", "ratio", "bytes"})


def _samples(runs: list[dict[str, Any]], metric: str) -> list[float]:
    """Samples of an end-to-end metric from one workload's untraced runs."""
    if len(runs) > 1:
        return [run["metrics"][metric]["value"] for run in runs]
    entry = runs[0]
    if metric == "host_s":
        return entry["host_s"]["samples"]
    if metric == "work_per_host_s":
        return [entry["work"] / s for s in entry["host_s"]["samples"]]
    if metric == "setup_s":
        return entry["setup_s"]["samples"]
    return [entry["metrics"][metric]["value"]]


def judge(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """Verdict for B against A, and B's relative worsening (negative
    when B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    spread = max((max(s) - min(s)) / statistics.median(s) for s in (a, b))
    separated = max(a) < min(b) or max(b) < min(a)
    if spread > bound and not separated:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare_files(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """Print the verdict table; exit code 1 if anything regressed or an
    exact metric changed."""
    with open(path_a) as fh:
        ledger_a = json.load(fh)
    with open(path_b) as fh:
        ledger_b = json.load(fh)
    print(f"A: {path_a} (git {ledger_a['git_sha'][:12]}, seed {ledger_a['seed']})")
    print(f"B: {path_b} (git {ledger_b['git_sha'][:12]}, seed {ledger_b['seed']})")
    bad = 0
    for workload in ledger_a["workloads"]:
        if workload not in ledger_b["workloads"]:
            print(f"{workload}: missing from B")
            bad += 1
            continue
        sides = ledger_a["workloads"][workload], ledger_b["workloads"][workload]
        for metric in spec["end_to_end"]:
            a, b = (_samples(side["end_to_end"], metric["name"]) for side in sides)
            verdict, worse_by = judge(a, b, metric["better"], metric["bound"])
            bad += verdict == "regressed"
            print(f"{workload:20s} {metric['name']:18s} "
                  f"A {statistics.median(a):12.4f}  B {statistics.median(b):12.4f} "
                  f"{metric['unit']:8s} worse by {worse_by:+7.1%} "
                  f"(bound {metric['bound']:.0%})  {verdict}")
        for metric in spec["per_layer"]:
            if metric["unit"] not in EXACT_UNITS or metric["name"].startswith("trace."):
                continue
            a_value, b_value = (
                side["per_layer"]["metrics"][metric["name"]]["value"] for side in sides
            )
            if a_value != b_value:
                bad += 1
                print(f"{workload:20s} {metric['name']:40s} A {a_value!r}  B {b_value!r}  changed")
    print("no regression" if not bad else f"{bad} regressed or changed")
    return 1 if bad else 0
