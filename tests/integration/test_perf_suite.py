"""Smoke tests for the wall-clock perf suite (benchmarks/perf)."""

import json

import pytest

wallclock = pytest.importorskip("benchmarks.perf.wallclock")

# A scaled-down config so the suite itself stays fast under pytest.
# fanout_classes=4 collapses most completion horizons by symmetry, so
# the 64/256-node fan-outs exercise the batch path in a few events.
TINY = dict(sizing_records=2_000, points=400, k=3, partitions=4,
            job_records=800, e2e_points=400, fanout_classes=4,
            bulk_points=400, shuffle_records=400,
            multijob_chain=2, multijob_bulk=2, concurrent_records=200,
            repeats=1)


@pytest.fixture
def tiny_mode():
    wallclock.SIZES["tiny"] = TINY
    yield "tiny"
    wallclock.SIZES.pop("tiny", None)


def test_suite_runs_and_reports_every_bench(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    assert set(doc["benches"]) == set(wallclock.BENCHES)
    assert all(t > 0 for t in doc["benches"].values())
    assert doc["meta"]["calibration_seconds"] > 0


def test_check_passes_against_itself(tiny_mode, tmp_path):
    doc = wallclock.run_suite(tiny_mode)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    baseline = json.loads(path.read_text())
    assert wallclock.check_against(doc, baseline, tolerance=0.25) == []


def test_check_flags_regression(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    slower = json.loads(json.dumps(doc))
    slower["benches"]["sizing_homogeneous"] *= 10
    failures = wallclock.check_against(slower, doc, tolerance=0.25)
    assert len(failures) == 1
    assert "sizing_homogeneous" in failures[0]


def test_flagged_bench_passes_when_its_retime_is_clean(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    slower = json.loads(json.dumps(doc))
    slower["benches"]["sizing_homogeneous"] *= 10
    asked = []

    def retime(name):
        asked.append(name)
        return doc["benches"][name], doc["meta"]["calibration_seconds"]

    assert wallclock.check_against(slower, doc, 0.25, retime) == []
    assert asked == ["sizing_homogeneous"]  # only the flagged bench, once


def test_bench_over_the_bound_twice_fails_with_both_readings(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    slower = json.loads(json.dumps(doc))
    slower["benches"]["sizing_homogeneous"] *= 10
    cal = doc["meta"]["calibration_seconds"]

    def retime(name):
        return doc["benches"][name] * 4, cal

    (failure,) = wallclock.check_against(slower, doc, 0.25, retime)
    first = slower["benches"]["sizing_homogeneous"] / cal
    second = doc["benches"]["sizing_homogeneous"] * 4 / cal
    base = doc["benches"]["sizing_homogeneous"] / cal
    assert failure == (
        f"sizing_homogeneous: {first:.2f}x and {second:.2f}x calibration "
        f"vs baseline {base:.2f}x (> 25% regression)"
    )


def test_retime_reads_one_bench_afresh(tiny_mode):
    seconds, calibration = wallclock.retime(tiny_mode, "sizing_homogeneous")
    assert seconds > 0 and calibration > 0


def test_check_rejects_mode_mismatch(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    other = json.loads(json.dumps(doc))
    other["meta"]["mode"] = "full"
    failures = wallclock.check_against(doc, other, tolerance=0.25)
    assert failures and "mode mismatch" in failures[0]


def test_trajectory_benches_exempt_from_gate(tiny_mode):
    doc = wallclock.run_suite(tiny_mode)
    slower = json.loads(json.dumps(doc))
    for name in wallclock.TRAJECTORY_ONLY:
        slower["benches"][name] *= 100
    assert wallclock.check_against(slower, doc, tolerance=0.25) == []
