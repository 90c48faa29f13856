"""The dependency-driven fixpoint driver against the plain sweep.

``reference_fixpoint.sweep`` re-evaluates every function every round;
``Fixpoint.run`` skips a function none of whose reads changed.  Both
must leave the same summaries — every field, not only ``key()`` — for
every function in all four families, at the natural fixpoint and at
every round cap, and so the same findings.
"""

from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.engine import iter_python_files
from repro.lint.examples import EXAMPLES
from repro.lint.module import LintModule
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.graph import (
    module_name_for_path,
    module_name_for_virtual_path,
)
from repro.lint.project.interference import InterferenceAnalysis
from repro.lint.project.ir import build_module_ir
from repro.lint.project.typestate import TypestateAnalysis
from repro.lint.project.units import UnitAnalysis
from tests.lint.reference_fixpoint import sweep

REPO = Path(__file__).resolve().parents[2]
PASSES = (ProjectAnalysis, TypestateAnalysis, UnitAnalysis, InterferenceAnalysis)


def lower_tree(*roots: Path) -> list[dict]:
    irs = []
    for path in iter_python_files(roots):
        module = LintModule.from_bytes(str(path), path.read_bytes())
        irs.append(build_module_ir(module, *module_name_for_path(path)))
    return irs


def lower_sources(sources: dict[str, str]) -> list[dict]:
    return [
        build_module_ir(LintModule(path, src), *module_name_for_virtual_path(path))
        for path, src in sources.items()
    ]


def analyse(irs: list[dict]) -> tuple[dict, list, int]:
    """(every summary of every family, every family finding, evaluations)."""
    project = ProjectAnalysis(irs)
    families = {
        "alias": project.summaries,
        "typestate": project.typestate().summaries,
        "units": project.unit_taint().summaries,
        "interference": project.interference().effects,
    }
    state = {
        name: {fid: (summary.key(), vars(summary)) for fid, summary in table.items()}
        for name, table in families.items()
    }
    findings = [
        project.typestate().findings,
        project.unit_taint().findings,
        project.interference().findings,
    ]
    return state, findings, project.functions_evaluated()


def assert_driver_equals_sweep(irs: list[dict]) -> tuple[int, int]:
    """Returns (driver evaluations, sweep evaluations)."""
    state, findings, evaluated = analyse(irs)
    with mock.patch.object(Fixpoint, "run", sweep):
        ref_state, ref_findings, ref_evaluated = analyse(irs)
    for family, table in ref_state.items():
        assert state[family].keys() == table.keys(), family
        for fid, expected in table.items():
            assert state[family][fid] == expected, (family, fid)
    assert findings == ref_findings
    assert evaluated <= ref_evaluated
    return evaluated, ref_evaluated


def round_cap(cap: int) -> ExitStack:
    """Every pass stops after ``cap`` rounds, converged or not."""
    stack = ExitStack()
    for cls in PASSES:
        stack.enter_context(mock.patch.object(cls, "MAX_ROUNDS", cap))
    return stack


@pytest.fixture(scope="module")
def src_irs():
    return lower_tree(REPO / "src" / "repro")


class TestRealTrees:
    def test_src_repro_identical_with_fewer_evaluations(self, src_irs):
        evaluated, swept = assert_driver_equals_sweep(src_irs)
        functions = sum(len(ir["functions"]) for ir in src_irs)
        # One evaluation per function per family is the floor; the sweep
        # pays for every function in every round.
        assert 4 * functions <= evaluated < swept / 2

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_every_round_cap_is_identical(self, src_irs, cap):
        # Equal summaries at cap k for every k is equal state after
        # every round: the skipped evaluations change nothing, ever.
        with round_cap(cap):
            assert_driver_equals_sweep(src_irs)

    def test_lint_fixtures_and_examples_tree(self):
        # Test files are ordinary Python too: 1,400 more functions with
        # a very different call-graph shape (flat, fixture-heavy).
        assert_driver_equals_sweep(lower_tree(REPO / "tests" / "lint", REPO / "examples"))

    def test_file_order_is_irrelevant(self, src_irs):
        forward, _, evaluated = analyse(src_irs)
        backward, _, evaluated_backward = analyse(src_irs[::-1])
        assert forward == backward
        assert evaluated == evaluated_backward


class TestFixtures:
    @pytest.mark.parametrize("rule_id", sorted(EXAMPLES))
    def test_rule_example_pairs(self, rule_id):
        example = EXAMPLES[rule_id]
        assert_driver_equals_sweep(lower_sources({"app.py": example.bad}))
        assert_driver_equals_sweep(lower_sources({"app.py": example.good}))

    def test_cross_module_release_helper_and_bound_callbacks(self):
        assert_driver_equals_sweep(
            lower_sources(
                {
                    "pkg/util.py": (
                        "def cleanup(shm):\n"
                        "    shm.close()\n"
                        "    shm.unlink()\n"
                    ),
                    "pkg/exporter.py": (
                        "from multiprocessing.shared_memory import SharedMemory\n"
                        "from pkg.util import cleanup\n"
                        "from pkg.spec import Spec, run\n"
                        "class Exporter:\n"
                        "    def export(self, payload):\n"
                        "        shm = SharedMemory(create=True, size=len(payload))\n"
                        "        try:\n"
                        "            run(Spec(mapper=self.fill), shm)\n"
                        "        finally:\n"
                        "            cleanup(shm)\n"
                        "    def fill(self, shm):\n"
                        "        shm.buf[0] = 1\n"
                        "        return self.export(shm)\n"
                    ),
                    "pkg/spec.py": (
                        "class Spec:\n"
                        "    def __init__(self, mapper=None):\n"
                        "        self.mapper = mapper\n"
                        "    def run_mapper(self, item):\n"
                        "        return self.mapper(item)\n"
                        "def run(spec: Spec, item):\n"
                        "    return spec.run_mapper(item)\n"
                    ),
                }
            )
        )


# -- synthetic call graphs ----------------------------------------------------

BOX = (
    "class Box:\n"
    "    def __init__(self, on_done=None):\n"
    "        self.on_done = on_done\n"
    "    def fire(self, item):\n"
    "        return self.on_done(item, item)\n"
    "def fire(box: Box, item):\n"
    "    return box.fire(item)\n"
)

#: Statement templates; ``{j}`` is a drawn callee index.  Between them
#: they feed every summary field of every family: parameter mutation and
#: aliasing returns, acquire/release/escape, unit sources and sinks,
#: order taint and its sinks, handler registration, function references
#: and constructor-bound callbacks (lambdas: the alias pass tracks
#: closures and method references, not bare module-level names).
STATEMENTS = (
    "a.append(b)",
    "x = f{j}(a, b)",
    "x = f{j}(b, x)",
    "f{j}(x, a)",
    "a.close()",
    "h = open(a)\n    f{j}(h, b)",
    "x = time.time() + f{j}(a, b)",
    "sim.schedule(a)",
    "sim.schedule(1.0, lambda: f{j}(a, b))",
    "x = set(b)",
    "sim.schedule_batch(0.0, a)",
    "x = fire(Box(on_done=lambda p, q: f{j}(p, q)), a)",
    "cb = lambda p, q: f{j}(q, p)\n    x = cb(a, x)",
    "return f{j}(x, b)",
    "return open(a)",
    "return x",
)


@st.composite
def call_graphs(draw) -> dict[str, str]:
    """Two modules of small functions calling each other freely —
    self-recursion, mutual recursion across the module boundary and
    callbacks bound through ``Box(on_done=...)`` included."""
    count = draw(st.integers(2, 6))
    bodies = []
    for _ in range(count):
        picks = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(STATEMENTS) - 1), st.integers(0, count - 1)
                ),
                min_size=1,
                max_size=4,
            )
        )
        bodies.append([STATEMENTS[s].format(j=j) for s, j in picks])
    sources = {"pkg/box.py": BOX}
    for parity, name in ((0, "even"), (1, "odd")):
        other = "odd" if name == "even" else "even"
        theirs = [f"f{i}" for i in range(count) if i % 2 != parity]
        lines = ["import time", "from pkg.box import Box, fire"]
        if theirs:
            lines.append(f"from pkg.{other} import {', '.join(theirs)}")
        for i in range(parity, count, 2):
            lines.append(f"def f{i}(a, b):")
            lines.append("    x = b")
            lines.extend(f"    {stmt}" for stmt in bodies[i])
            lines.append("    return x")
        sources[f"pkg/{name}.py"] = "\n".join(lines) + "\n"
    order = draw(st.permutations(sorted(sources)))
    return {path: sources[path] for path in order}


class TestSyntheticCallGraphs:
    @settings(max_examples=150, deadline=None)
    @given(call_graphs())
    def test_driver_equals_sweep(self, sources):
        assert_driver_equals_sweep(lower_sources(sources))

    @settings(max_examples=50, deadline=None)
    @given(call_graphs(), st.integers(1, 3))
    def test_driver_equals_sweep_at_a_round_cap(self, sources, cap):
        with round_cap(cap):
            assert_driver_equals_sweep(lower_sources(sources))
