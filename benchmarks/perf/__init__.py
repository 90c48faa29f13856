"""Wall-clock performance measurement (host time, not simulated time).

Unlike ``benchmarks/test_*`` — which reproduce the paper's *simulated*
figures — this package times the reproduction itself on the host.  The
perf ledger (``python3 benchmarks/perf/ledger/run.py``) is the one
harness: it times six workloads end to end, checks their simulated
results against committed references, and on a traced run attributes
host time to layers.  ``hotspots`` names the functions a ledger workload
spends its time in; ``wallclock`` holds the two bench factories the
ledger's layer probes call.
"""
