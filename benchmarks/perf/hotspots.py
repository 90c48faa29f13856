"""Function-level hot spots of one perf-ledger workload.

The ledger attributes host time to *layers* (modules); this names the
functions inside them.  One warm-up repeat, then ``--repeats`` repeats
sampled on CPU time (``ITIMER_PROF`` asked for 1 ms; the kernel rounds it
up to its own tick, so the header prints the rate it got).  A sample is
charged as *self* to the innermost frame of a ``repro`` module and as
*cumulative* to every distinct ``repro`` function on the stack::

    PYTHONPATH=src python -m benchmarks.perf.hotspots pagerank_object [--repeats 5] [--top 30]

Known skew: the handler runs when the interpreter next reaches a
bytecode boundary, so a long C call is charged to the next Python frame
entered rather than to its caller — e.g. the gather inside ``take`` shows
up under the ``__init__`` of the column it builds.  Read neighbouring
rows together; confirm a finding with the ledger before acting on it.
"""

from __future__ import annotations

import argparse
import signal
import time
from collections import Counter
from pathlib import Path
from types import FrameType

from benchmarks.perf.ledger.clock import SpeedClock
from benchmarks.perf.ledger.tracing import Tracer
from benchmarks.perf.ledger.workloads import WORKLOADS

TICK_S = 0.001


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args(argv)

    self_n: Counter[tuple[str, str]] = Counter()
    cum_n: Counter[tuple[str, str]] = Counter()

    def tick(_signum: int, frame: FrameType | None) -> None:
        stack = []
        while frame is not None:
            if frame.f_globals.get("__name__", "").startswith("repro."):
                stack.append((frame.f_code.co_filename, frame.f_code.co_name))
            frame = frame.f_back
        self_n[stack[0] if stack else ("", "(outside repro)")] += 1
        cum_n.update(set(stack))

    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.workload, SpeedClock())  # disabled: the clock is never read
    inputs = workload.build(1, 1.0)  # the ledger's default seed, full size
    previous = signal.signal(signal.SIGPROF, tick)
    try:
        workload.repeat(inputs, tracer)  # warm-up: lazy tables, pools, caches
        cpu_started = time.process_time()  # pic: noqa: PIC001 (host CPU time IS the measurand)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        for _ in range(args.repeats):
            workload.repeat(inputs, tracer)
        cpu_s = time.process_time() - cpu_started  # pic: noqa: PIC001
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
        workload.close(inputs)

    total = sum(self_n.values())
    print(f"{args.workload}: {total} samples over {args.repeats} repeats, "
          f"one per {1e3 * cpu_s / max(total, 1):.1f} ms of {cpu_s:.2f} s CPU")
    # By self share first, then by cumulative share: a caller whose time
    # is spread over several callees' rows only shows in the second.
    for title, ranked in (("self", self_n), ("cumulative", cum_n)):
        print(f"\nby {title} share\n{'self %':>7} {'cum %':>7}  function")
        for (filename, function), _n in ranked.most_common(args.top):
            path = Path(filename)
            where = f"{path.parent.name}/{path.name}:" if filename else ""
            print(f"{100 * self_n[filename, function] / total:7.1f} "
                  f"{100 * cum_n[filename, function] / total:7.1f}  {where}{function}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
