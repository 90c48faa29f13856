"""Benchmark harness: canonical workloads and IC-vs-PIC comparison.

The benchmark files under ``benchmarks/`` (one per paper table/figure)
are thin: they pull a canonical workload from
:mod:`repro.harness.workloads`, run it through
:func:`repro.harness.compare.compare_ic_pic`, and print the same
rows/series the paper reports.
"""

from repro.harness.compare import ComparisonResult, compare_ic_pic

__all__ = ["ComparisonResult", "compare_ic_pic"]
