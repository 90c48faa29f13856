"""Self-test of the perf ledger, at ``--scale 0.05``.

Not in the tier-1 ``testpaths``; run it explicitly (a minute or two)::

    PYTHONPATH=src python -m pytest benchmarks/perf/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.ledger.checks import diff_digests
from benchmarks.perf.ledger.compare import judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict, dict]:
    """One contract-mode run; returns (exit code, result line, detail file)."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return proc.returncode, result, detail


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, run(request.param, 0), run(request.param, 1)


def test_every_named_metric_is_printed_with_its_unit(runs):
    _, untraced, traced = runs
    for kind, (code, result, _) in (("end_to_end", untraced), ("per_layer", traced)):
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in untraced[1]["metrics"].values())


def test_sampler_shares_sum_to_traced_wall_time(runs):
    _, _, (_, result, detail) = runs
    metrics = result["metrics"]
    shares = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert shares == pytest.approx(metrics["trace.host_s"]["value"], rel=0.02)
    assert shares == pytest.approx(metrics["trace.self_s_sum"]["value"], rel=1e-9)
    assert detail["sampler_samples"] > 0
    names = {span["name"] for span in detail["spans"]}
    assert {"setup", "repeat", "probes"} <= names
    assert all(span["end"] >= span["start"] for span in detail["spans"])


def test_digests_are_deterministic_across_two_runs(runs):
    _, (_, _, first), (_, _, second) = runs
    assert diff_digests(first["digest"], second["digest"]) == []
    assert first["work"] == second["work"] > 0


def test_tampered_reference_fails_the_run(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(HERE / "refs", refs)
    path = refs / "multijob_mixed.json"
    digest = json.loads(path.read_text())
    digest["cluster"]["events_processed"] += 1
    path.write_text(json.dumps(digest))
    code, result, detail = run("multijob_mixed", 0, "--refs-dir", str(refs))
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    failure = detail["checks"]["failures"][0]
    assert failure["name"] == "reference_digest"
    assert "cluster.events_processed" in failure["detail"]


def test_missing_reference_fails_the_run(tmp_path):
    code, result, _ = run("lint_corpus", 0, "--refs-dir", str(tmp_path))
    assert code == 1 and result["failed"] >= 1


def test_diff_digests_is_exact_on_integers_and_tolerant_on_floats():
    assert diff_digests({"a": 1, "b": [1.0, 2]}, {"a": 1, "b": [1.0 + 1e-12, 2]}) == []
    assert diff_digests({"a": 1}, {"a": 2}) == ["a: got 1, expected 2"]
    assert diff_digests({"t": 1.0}, {"t": 1.0 + 1e-6}) != []
    assert diff_digests({"a": 1}, {"a": 1, "b": 2}) == ["b: missing, expected 2"]


def test_compare_verdicts():
    # Worse by 20% against a 10% bound, tight repeats: regressed.
    assert judge([1.0, 1.01], [1.2, 1.21], "lower", 0.1)[0] == "regressed"
    assert judge([1.0, 1.01], [1.05, 1.04], "lower", 0.1)[0] == "ok"
    # Repeats 30% apart and overlapping: a 10% change cannot be seen.
    assert judge([1.0, 1.3], [1.1, 1.35], "lower", 0.1)[0] == "unresolved"
    # Wide spread, but every repeat of B is slower than every one of A.
    assert judge([1.0, 1.3], [1.6, 2.0], "lower", 0.1)[0] == "regressed"
    assert judge([100.0, 101.0], [80.0, 81.0], "higher", 0.1)[0] == "regressed"
