"""Perf ledger: the repo's end-to-end benchmark.

Two ways in.  The driver's contract (``BENCHMARK.json``) runs one
workload per process::

    python3 benchmarks/perf/ledger/run.py --workload kmeans_numeric \\
        --seed 1 --seconds 10 --trace 0

and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` the same file is the one-command ledger: every workload
(or ``--only W``) in fresh subprocesses, untraced (``--runs`` times) then
traced, every metric printed by name with its unit, and the whole run
written to ``out/ledger-seed<N>.json`` for ``--compare``::

    python -m benchmarks.perf.ledger [--seed 1] [--only W] [--seconds 12] [--runs 1]
    python -m benchmarks.perf.ledger --write-refs
    python -m benchmarks.perf.ledger --compare A.json B.json

See README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # pic: noqa: PIC001 (host time IS the measurand)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]


def _bootstrap() -> None:
    """Make ``benchmarks`` and ``repro`` importable from a bare checkout,
    and measure the defaults: no ``PIC_*`` switch leaks in from the
    caller's environment."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf ledger: {ROOT / 'src' / 'repro'} not found; the benchmark "
                 "measures the checkout it sits in")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in [n for n in os.environ if n.startswith("PIC_")]:
        del os.environ[name]


def _spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_ledger(args: argparse.Namespace, workloads: list[str]) -> int:
    """Every workload in its own subprocesses: ``--runs`` untraced runs,
    then a traced one.  Returns the exit code."""
    ledger = {"git_sha": _git_sha(), "seed": args.seed, "scale": args.scale, "workloads": {}}
    status = 0
    for name in workloads:
        entry = ledger["workloads"][name] = {"end_to_end": [], "per_layer": None}
        for trace in [0] * args.runs + [1]:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale), "--refs-dir", args.refs_dir,
            ]
            if args.write_refs and not entry["end_to_end"]:
                command.append("--write-refs")
            detail_path = HERE / "out" / f"{name}-seed{args.seed}-trace{trace}.json"
            detail_path.unlink(missing_ok=True)
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            # All but the last line is the human-readable table.
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if not detail_path.is_file():
                print(f"{name} (trace {trace}) died with exit code {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            status = status or proc.returncode
            with detail_path.open() as fh:
                detail = json.load(fh)
            if trace:
                entry["per_layer"] = detail
            else:
                entry["end_to_end"].append(detail)
    if args.seed != 1:
        print(f"note: seed {args.seed} has no committed digest of its own; its repeats are "
              "checked for determinism and quality, and the reference instance (seed 1) "
              "against refs/")
    output = Path(args.output) if args.output else HERE / "out" / f"ledger-seed{args.seed}.json"
    with output.open("w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    failed = sum(
        detail["checks"]["failed"]
        for entry in ledger["workloads"].values()
        for detail in [*entry["end_to_end"], entry["per_layer"]]
    )
    print(f"wrote {output}; failed checks: {failed}")
    return status


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="PIC reproduction perf ledger")
    parser.add_argument("--workload", choices=names, help="run this one workload in-process")
    parser.add_argument("--only", choices=names, help="ledger mode: just this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the timed repeats go on (at least 3 repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; for the self-test only")
    parser.add_argument("--write-refs", action="store_true",
                        help="regenerate refs/<workload>.json from the reference instance")
    parser.add_argument("--refs-dir", default=str(HERE / "refs"),
                        help="where reference digests are read (and written)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge ledger B against ledger A by each metric's bound")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger mode: untraced runs per workload; --compare judges "
                             "run against run when there are several")
    parser.add_argument("--output", help="ledger mode: where to write the ledger file")
    args = parser.parse_args(argv)

    if args.compare:
        from benchmarks.perf.ledger.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], spec)
    if args.workload:
        from benchmarks.perf.ledger.clock import SpeedClock

        clock = SpeedClock()
        clock.start(origin=PROCESS_START)
        from benchmarks.perf.ledger.runner import run_workload

        return run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
            args.write_refs, Path(args.refs_dir), spec, clock,
        )
    return run_ledger(args, [args.only] if args.only else names)


if __name__ == "__main__":
    sys.exit(main())
