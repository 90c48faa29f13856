"""Builds the frozen lint corpus: ``src/repro`` as of one commit, with
six seeded defects so that ``lint_corpus`` has findings to get right.

Provenance only — the benchmark reads the committed tarball and never
runs this.  The tarball was made at commit 8464be0; run from a checkout
of that commit to reproduce it byte for byte::

    python benchmarks/perf/ledger/corpus/make_corpus.py

The defects are the seeded regressions of
``tests/lint/test_app_regressions.py`` that fit in one tree together,
one per whole-program rule family plus aliasing.
"""

from __future__ import annotations

import gzip
import io
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[3] / "src"
TARBALL = HERE / "src-repro-8464be0.tar.gz"

# (file, text to find, replacement) — each anchor occurs at least once;
# the first occurrence is replaced.
DEFECTS = (
    # PIC301: every block shares the driver's model.
    ("repro/apps/linsolve/program.py",
     "out.append((list(block), sub_model))",
     "out.append((list(block), model))"),
    # PIC302: merge accumulates into one of its inputs.
    ("repro/apps/smoothing/program.py",
     "                merged[key] = model[key]",
     "                models[0][key] = model[key]"),
    # PIC303: a map task writes the driver's model.
    ("repro/apps/kmeans/program.py",
     "        emit = ctx.emit",
     "        ctx.model[0] = centroids[0]\n        emit = ctx.emit"),
    # PIC502: the error path releases the block twice.
    ("repro/parallel/shm.py",
     "        _release_block(shm)\n        raise",
     "        _release_block(shm)\n        _release_block(shm)\n        raise"),
    # PIC601: host clock mixed into a simulated duration.
    ("repro/mapreduce/driver.py",
     "            iter_start = self.cluster.now",
     "            import time\n"
     "            iter_start = time.perf_counter()  # pic: noqa: PIC001"),
    # PIC402: a handler reaches into the simulator's private queue.
    ("repro/mapreduce/runner.py",
     '    def _map_compute_phase(self, attempt: dict) -> None:\n'
     '        split_index = attempt["split"]',
     '    def _map_compute_phase(self, attempt: dict) -> None:\n'
     '        self.cluster.sim._queue.clear()\n'
     '        split_index = attempt["split"]'),
)


def main() -> int:
    defects = {path: (old, new) for path, old, new in DEFECTS}
    buffer = io.BytesIO()
    # Fixed mtimes, owners and order: the same tree gives the same bytes.
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as gz:
        with tarfile.open(fileobj=gz, mode="w") as tar:
            for path in sorted((SRC / "repro").rglob("*.py")):
                name = path.relative_to(SRC).as_posix()
                if name.startswith("repro/lint/"):
                    continue
                text = path.read_text(encoding="utf-8")
                if name in defects:
                    old, new = defects.pop(name)
                    if old not in text:
                        print(f"anchor vanished from {name}: {old!r}", file=sys.stderr)
                        return 1
                    text = text.replace(old, new, 1)
                data = text.encode("utf-8")
                info = tarfile.TarInfo(name)
                info.size = len(data)
                info.mode = 0o644
                tar.addfile(info, io.BytesIO(data))
    if defects:
        print(f"files not found: {sorted(defects)}", file=sys.stderr)
        return 1
    TARBALL.write_bytes(buffer.getvalue())
    print(f"wrote {TARBALL} ({len(buffer.getvalue())} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
