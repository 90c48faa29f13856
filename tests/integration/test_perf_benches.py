"""The perf ledger's layer probes call two bench factories of
``benchmarks.perf.wallclock``; only traced ledger runs reach them, so
this runs each once at a tiny size."""

from benchmarks.perf import wallclock


def test_the_ledger_bench_factories_run_at_tiny_size():
    assert set(wallclock.BENCHES) == {"shuffle_columnar_vs_row", "flow_fanout_64"}
    wallclock.BENCHES["shuffle_columnar_vs_row"]({"shuffle_records": 400})()
    wallclock.BENCHES["flow_fanout_64"]({"fanout_classes": 4})()
