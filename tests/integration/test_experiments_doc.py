"""EXPERIMENTS.md quotes the speedups the paper-figure suite writes.

Figures 9-11's speedups appear twice in EXPERIMENTS.md: in the headline
table and in each figure's "Measured" bullet.  Every such cell must equal
the ``speedup`` column of the figure's table in ``benchmarks/results/``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
RESULTS = ROOT / "benchmarks" / "results"


def speedups(name: str) -> dict[str, str]:
    """Row label -> speedup (``"3.29"``) of one results table."""
    lines = (RESULTS / name).read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if line.rstrip().endswith("| speedup"))
    rows = {}
    for line in lines[header + 2:]:
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) < 2:
            break
        rows[cells[0]] = cells[-1].removesuffix("x")
    return rows


FIG9 = speedups("figure-9-small-cluster.txt")
FIG10 = speedups("figure-10-medium-cluster.txt")
FIG11 = speedups("figure-11-strong-scaling.txt")


def measured(figure: str) -> list[str]:
    """The two-decimal speedups quoted in a figure section's "Measured"
    bullet, in the order they appear."""
    section = DOC.split(f"\n## {figure} ", 1)[1].split("\n## ", 1)[0]
    bullet = section.split("* **Measured**", 1)[1].split("\n* ", 1)[0]
    return re.findall(r"(\d+\.\d\d)×", bullet)


def test_results_tables_parse():
    assert list(FIG9) == ["K-means", "PageRank", "Linear solver"]
    assert list(FIG10) == ["K-means", "Neural net", "Image smoothing"]
    assert list(FIG11) == ["64", "128", "192", "256"]


def test_headline_table_matches_results():
    cells = dict(re.findall(r"^\| (Fig [^|]+?) \| [^|]+ \| \*\*(.+?)×\*\* \|$", DOC, re.M))
    assert {label: value.split(" / ") for label, value in cells.items()} == {
        "Fig 9 K-means (6 nodes)": [FIG9["K-means"]],
        "Fig 9 PageRank (6 nodes)": [FIG9["PageRank"]],
        "Fig 9 linear solver (6 nodes)": [FIG9["Linear solver"]],
        "Fig 10 neural net (64 nodes)": [FIG10["Neural net"]],
        "Fig 10 image smoothing (64 nodes)": [FIG10["Image smoothing"]],
        "Fig 11 smoothing 64→256 nodes": list(FIG11.values()),
    }


def test_measured_lines_match_results():
    assert measured("Figure 9") == list(FIG9.values())
    assert measured("Figure 10") == [
        FIG10["Neural net"], FIG10["Image smoothing"], FIG10["K-means"],
    ]
    assert measured("Figure 11") == list(FIG11.values())
