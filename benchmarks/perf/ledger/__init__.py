"""Perf ledger: six end-to-end workloads, per-layer self time and probes.

Run it with ``python -m benchmarks.perf.ledger``; see README.md here.
"""
