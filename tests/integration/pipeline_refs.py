"""Frozen-reference summaries for barrier vs pipelined execution.

``PIC_PIPELINE`` deliberately changes *simulated timing* (unlike
``PIC_WORKERS``, which is wall-clock only), so pipelined
runs cannot be checked against barrier runs for bit-identity.  Instead
each mode gets its own frozen reference: a digest of the final model
plus the exact simulated clock and traffic ledger, committed to
``data/pipeline_references.json``.  The equivalence suite replays every
app in both modes and compares against these summaries bit for bit — a
timing regression or an accidental semantic change in *either* mode
fails loudly.

These references are also the oracle for the record data plane: they
were frozen while a second, row-at-a-time implementation still ran
beside the columnar one and agreed with it bit for bit, so any change
to how records are hashed, grouped, combined or sized shows up here as
a changed model digest, clock or byte ledger.

Regenerate (after an intentional timing change) with::

    PYTHONPATH=src python -m tests.integration.pipeline_refs
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

DATA_PATH = Path(__file__).parent / "data" / "pipeline_references.json"


def _digest_into(h, obj) -> None:
    """Canonical structural hash: type tags + exact byte content.

    Floats hash their IEEE-754 bytes, arrays their dtype/shape/raw
    buffer — two models digest equal iff ``_deep_equal`` would accept
    them, with no tolerance.
    """
    if isinstance(obj, np.ndarray):
        h.update(b"A")
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"D%d" % len(obj))
        for key in sorted(obj, key=repr):
            _digest_into(h, key)
            _digest_into(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d" % len(obj))
        for item in obj:
            _digest_into(h, item)
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif obj is None:
        h.update(b"N")
    else:
        h.update(b"O" + repr(obj).encode())


def model_digest(model) -> str:
    """Hex digest of a model under the canonical structural hash."""
    h = hashlib.sha256()
    _digest_into(h, model)
    return h.hexdigest()


def run_app(app: str, pipeline: bool):
    """One full PIC run of ``app`` (4 nodes, 4 partitions, seed 7).

    Returns the :class:`~repro.pic.runner.PICResult` and the cluster's
    traffic snapshot.  ``pipeline`` is passed explicitly so the run is
    independent of the ambient ``PIC_PIPELINE`` value.
    """
    from repro.cluster.cluster import Cluster
    from repro.pic.runner import PICRunner
    from tests.parallel.test_equivalence import APPS

    program, records, model0 = APPS[app]()
    cluster = Cluster(num_nodes=4, nodes_per_rack=4)
    runner = PICRunner(
        cluster,
        program,
        num_partitions=4,
        seed=7,
        be_max_iterations=3,
        max_iterations=3,
        pipeline=pipeline,
    )
    result = runner.run(records, initial_model=copy.deepcopy(model0))
    return result, cluster.meter.snapshot()


def summarize(result, meter) -> dict:
    """The frozen-reference summary of one run (JSON-safe, exact)."""
    return {
        "model_sha256": model_digest(result.model),
        "total_time": result.total_time,
        "be_iterations": result.best_effort.be_iterations,
        "topoff_iterations": result.topoff.iterations,
        "be_cache": [
            [s.cache_hits, s.cache_misses, s.cache_evictions]
            for s in result.best_effort.stats
        ],
        "topoff_cache": [
            [t.cache_hits, t.cache_misses, t.cache_evictions]
            for t in result.topoff.traces
        ],
        "traffic": meter,
    }


def load_references() -> dict:
    """The committed reference table: ``{app: {mode: summary}}``."""
    with DATA_PATH.open() as fh:
        return json.load(fh)


def main() -> None:
    from tests.parallel.test_equivalence import APPS

    table: dict[str, dict[str, dict]] = {}
    for app in sorted(APPS):
        table[app] = {}
        for mode, pipeline in (("barrier", False), ("pipelined", True)):
            result, meter = run_app(app, pipeline)
            table[app][mode] = summarize(result, meter)
            print(f"{app:10s} {mode:9s} time={result.total_time:.3f}")
    DATA_PATH.parent.mkdir(parents=True, exist_ok=True)
    with DATA_PATH.open("w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DATA_PATH}")


if __name__ == "__main__":
    main()
