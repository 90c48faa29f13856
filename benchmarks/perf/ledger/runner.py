"""One run of one workload: set-up, reference check, timed repeats,
checks, and the metrics the run reports.

``--trace 0`` measures the end-to-end metrics with spans and sampler
off.  ``--trace 1`` is the separate traced run: it alternates untraced
and sampled repeats (their ratio is ``trace.overhead_x``), then runs
the layer probes, and reports the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.perf.ledger.clock import SpeedClock

SETUP_REPEATS = 3
MIN_REPEATS = 3         # timed repeats of an end-to-end run
MIN_TRACED_REPEATS = 2  # of each kind, in a traced run


def run_context(seed: int, scale: float, seconds: float) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def _summary(samples: list[float]) -> dict[str, Any]:
    return {
        "median": statistics.median(samples), "n": len(samples),
        "min": min(samples), "max": max(samples), "samples": samples,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float,
    write_refs: bool,
    refs_dir: Path,
    spec: dict[str, Any],
    clock: SpeedClock,
) -> int:
    """Run ``name`` once; print its metrics, then the result object as
    the last line of stdout.  Returns the exit code.

    ``spec`` is ``BENCHMARK.json``, the one place metric names and units
    are written down.  ``clock`` has been running since the entry
    script's first line; every time below is read from it, so is in
    seconds at reference speed.
    """
    context = run_context(seed, scale, seconds)
    _now = clock.now
    # The heavy imports (numpy, scipy, repro) are part of what a user
    # waits for before the workload is ready, so they count as set-up.
    from benchmarks.perf.ledger import checks
    from benchmarks.perf.ledger.tracing import LAYERS, Sampler, Tracer
    from benchmarks.perf.ledger.workloads import OUT_DIR, REF_SCALE, REF_SEED, WORKLOADS

    import_s = _now()
    workload = WORKLOADS[name]
    tracer = Tracer(name, clock)
    results: list[tuple[str, bool, str]] = []

    # Reference instance: fixed seed and size, so its digest can be
    # committed.  Running it is also the warm-up.
    ref_inputs = workload.build(REF_SEED, REF_SCALE)
    try:
        started = _now()
        reference = workload.repeat(ref_inputs, tracer)
        warmup_s = _now() - started
    finally:
        workload.close(ref_inputs)
    results += reference.quality
    if write_refs:
        path = checks.write_reference(refs_dir, name, reference.digest)
        print(f"wrote {path}", file=sys.stderr)
    expected = checks.load_reference(refs_dir, name)
    if expected is None:
        results.append(("reference_digest", False, f"no reference in {refs_dir}"))
    else:
        diff = checks.diff_digests(reference.digest, expected)
        results.append(("reference_digest", not diff, "\n".join(diff)))

    # Set-up, several times: the median is what the run reports.
    tracer.enabled = trace
    builds: list[float] = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            workload.close(inputs)
        with tracer.span("setup"):
            started = _now()
            inputs = workload.build(seed, scale)
            builds.append(_now() - started)
    setup = _summary([import_s + b for b in builds])
    context["sizes"] = workload.sizes(inputs)

    # Timed repeats, each on fresh Cluster/DFS objects.
    plain: list[float] = []
    sampled: list[float] = []
    wall: list[float] = []
    sampler = Sampler(clock)
    first = None
    try:
        loop_started = time.perf_counter()  # pic: noqa: PIC001 (--seconds is wall time)
        while True:
            # A repeat leaves cyclic garbage (clusters full of callbacks);
            # collect it now so the next repeat does not pay for it.
            gc.collect()
            sample_this = trace and len(plain) > len(sampled)
            tracer.enabled = sample_this
            with tracer.span("repeat"):
                if sample_this:
                    sampler.start()
                started, wall_started = _now(), time.perf_counter()  # pic: noqa: PIC001
                repeat = workload.repeat(inputs, tracer)
                elapsed = _now() - started
                wall.append(time.perf_counter() - wall_started)  # pic: noqa: PIC001
                if sample_this:
                    sampler.stop()
            (sampled if sample_this else plain).append(elapsed)
            results += repeat.quality
            if first is None:
                first = repeat
            else:
                diff = checks.diff_digests(repeat.digest, first.digest)
                results.append(("repeat_digest_equals_first", not diff, "\n".join(diff)))
            enough = (
                min(len(plain), len(sampled)) >= MIN_TRACED_REPEATS
                if trace else len(plain) >= MIN_REPEATS
            )
            if enough and time.perf_counter() - loop_started >= seconds:  # pic: noqa: PIC001
                break
        probes: dict[str, float] = {}
        if trace:
            from benchmarks.perf.ledger.probes import run_probes

            tracer.enabled = True
            with tracer.span("probes"):
                probes = run_probes(workload, inputs, clock)
    finally:
        workload.close(inputs)
        clock.stop()

    # Children are counted once reaped, hence after close().
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0

    host = _summary(plain)
    if not trace:
        values = {
            "host_s": host["median"],
            "work_per_host_s": first.work / host["median"],
            "setup_s": setup["median"],
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        self_s = {layer: sampler.self_s.get(layer, 0.0) / len(sampled) for layer in LAYERS}
        events = first.counts.get("cluster.events.processed", 0)
        values = {
            **{f"{layer}.self_s": seconds_ for layer, seconds_ in self_s.items()},
            **first.counts,
            **probes,
            "cluster.events.host_us_per_event": (
                1e6 * (self_s["cluster.events"] + self_s["cluster.flows"]) / events
                if events else 0.0
            ),
            "trace.host_s": statistics.fmean(sampled),
            "trace.self_s_sum": sum(self_s.values()),
            "trace.overhead_x": statistics.median(sampled) / host["median"],
            "trace.warmup_s": warmup_s,
            "trace.import_s": import_s,
        }

    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A per-layer metric that does not apply to this workload (another
    # app's probe, a layer the workload never enters) reads 0.
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": declared[metric]["unit"]}
        for metric in declared
    }

    failed = [r for r in results if not r[1]]
    detail = {
        "workload": name,
        "trace": int(trace),
        "context": context,
        "work": first.work,
        "work_unit": workload.work_unit,
        "host_s": host,
        "traced_host_s": _summary(sampled) if sampled else None,
        "host_wall_s": _summary(wall),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "digest": first.digest,
        "checks": {
            "attempted": len(results), "failed": len(failed),
            "failures": [{"name": n, "detail": d} for n, _, d in failed],
        },
        "sampler_samples": sampler.samples,
        "spans": tracer.spans,
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    with detail_path.open("w") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"work {first.work} {workload.work_unit}")
    print(f"  host time per repeat: median {host['median']:.4f} s of n={host['n']} "
          f"(min {host['min']:.4f}, max {host['max']:.4f}) at reference speed; plain "
          f"wall-clock median {statistics.median(wall):.4f} s.  Host time is this "
          "machine's, not simulated time.")
    for metric, entry in metrics.items():
        print(f"  {metric:40s} {entry['value']:16.6f} {entry['unit']}")
    for check_name, _, check_detail in failed:
        print(f"FAILED CHECK {check_name}:\n{check_detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0
