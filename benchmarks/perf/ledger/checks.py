"""Digest comparison and the committed reference digests.

A digest is the plain-data record of everything simulated in one repeat.
Integers (counts, counters, transfers) must match exactly; floats
(simulated seconds, byte totals) to 1e-9 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

FLOAT_REL_TOL = 1e-9


def diff_digests(got: Any, expected: Any, path: str = "") -> list[str]:
    """Field-by-field differences, one line each (empty when equal)."""
    if isinstance(expected, dict) and isinstance(got, dict):
        lines: list[str] = []
        for key in sorted(set(expected) | set(got)):
            where = f"{path}.{key}" if path else str(key)
            if key not in got:
                lines.append(f"{where}: missing, expected {expected[key]!r}")
            elif key not in expected:
                lines.append(f"{where}: unexpected {got[key]!r}")
            else:
                lines += diff_digests(got[key], expected[key], where)
        return lines
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        return [
            line
            for i, (g, e) in enumerate(zip(got, expected))
            for line in diff_digests(g, e, f"{path}[{i}]")
        ]
    if isinstance(expected, float) or isinstance(got, float):
        same = (
            isinstance(got, (int, float)) and isinstance(expected, (int, float))
            and math.isclose(got, expected, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
        )
    else:
        same = got == expected
    return [] if same else [f"{path}: got {got!r}, expected {expected!r}"]


def load_reference(refs_dir: Path, workload: str) -> dict[str, Any] | None:
    """The committed reference digest, or ``None`` when there is none."""
    path = refs_dir / f"{workload}.json"
    if not path.is_file():
        return None
    with path.open() as fh:
        return json.load(fh)


def write_reference(refs_dir: Path, workload: str, digest: dict[str, Any]) -> Path:
    path = refs_dir / f"{workload}.json"
    refs_dir.mkdir(exist_ok=True)
    with path.open("w") as fh:
        json.dump(digest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
