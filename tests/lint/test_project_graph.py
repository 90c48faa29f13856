"""Call-graph resolution over the real source tree.

These tests pin the acceptance behaviour of the whole-program layer:
every PICProgram subclass in ``src/repro/apps`` is discovered, and the
engine/runner call sites that invoke user callbacks resolve to each
app's overrides (or fall back to the base implementation when an app
does not override).
"""

from pathlib import Path

import pytest

from repro.lint.engine import iter_python_files
from repro.lint.module import LintModule
from repro.lint.project.analysis import ProjectAnalysis
from repro.lint.project.graph import module_name_for_path
from repro.lint.project.ir import build_module_ir

SRC = Path(__file__).resolve().parents[2] / "src"

APP_PROGRAMS = {
    "repro.apps.kmeans.program.KMeansProgram",
    "repro.apps.linsolve.program.LinearSolverProgram",
    "repro.apps.neuralnet.program.NeuralNetProgram",
    "repro.apps.pagerank.program.PageRankProgram",
    "repro.apps.smoothing.program.ImageSmoothingProgram",
}


#: Where a job's mapper and its reducer are called: the map-task
#: function and the job's up-front computation.
MAP_DISPATCH = "repro.parallel.tasks::run_map_task"
REDUCE_DISPATCH = "repro.mapreduce.runner::_JobState._compute"
#: Whose methods are a best-effort round's mappers and reducers.
BE_ROUND = "repro.pic.engine::BestEffortRound"


@pytest.fixture(scope="module")
def analysis():
    irs = []
    for path in iter_python_files([SRC]):
        module = LintModule.from_bytes(str(path), path.read_bytes())
        name, is_pkg = module_name_for_path(path)
        irs.append(build_module_ir(module, name, is_pkg))
    return ProjectAnalysis(irs)


def _callees(analysis, fid):
    return {callee for callee, _line, _col in analysis.summaries[fid].direct_calls}


class TestProgramDiscovery:
    def test_all_five_apps_discovered(self, analysis):
        programs = set(analysis.graph.program_classes())
        assert APP_PROGRAMS <= programs
        assert "repro.pic.api.PICProgram" in programs

    def test_reexport_chase_resolves_package_alias(self, analysis):
        # `from repro.pic import PICProgram` must land on the defining
        # module, not the package __init__.
        assert (
            analysis.graph.chase("repro.pic.PICProgram") == "repro.pic.api.PICProgram"
        )


class TestEngineCallbackResolution:
    def test_partition_call_reaches_every_override(self, analysis):
        callees = _callees(analysis, "repro.pic.engine::BestEffortEngine._partition")
        assert {
            "repro.apps.linsolve.program::LinearSolverProgram.partition",
            "repro.apps.pagerank.program::PageRankProgram.partition",
            "repro.apps.smoothing.program::ImageSmoothingProgram.partition",
            "repro.pic.api::PICProgram.partition",
        } <= callees

    def test_non_overriding_apps_resolve_to_base_partition(self, analysis):
        # kmeans and neuralnet inherit partition(); the dispatch edge
        # must go to PICProgram.partition, not to phantom overrides.
        callees = _callees(analysis, "repro.pic.engine::BestEffortEngine._partition")
        assert "repro.apps.kmeans.program::KMeansProgram.partition" not in callees
        assert "repro.apps.neuralnet.program::NeuralNetProgram.partition" not in callees

    def test_mapper_dispatch_reaches_every_apps_batch_map(self, analysis):
        callees = _callees(analysis, MAP_DISPATCH)
        expected = {f"{cls.rsplit('.', 1)[0]}::{cls.rsplit('.', 1)[1]}.batch_map"
                    for cls in APP_PROGRAMS}
        assert expected <= callees

    def test_mapper_dispatch_includes_pagerank_internal_phases(self, analysis):
        # PageRank's batch_map forwards to per-phase helpers; the
        # constructor-kwarg binding layer must surface them too.
        callees = _callees(analysis, MAP_DISPATCH)
        assert "repro.apps.pagerank.program::PageRankProgram._map_aggregate" in callees
        assert "repro.apps.pagerank.program::PageRankProgram._map_propagate" in callees

    def test_mapper_dispatch_includes_best_effort_closures(self, analysis):
        callees = _callees(analysis, MAP_DISPATCH)
        assert {f"{BE_ROUND}.map_owned", f"{BE_ROUND}.map_central"} <= callees

    def test_reducer_dispatch_reaches_every_batch_reduce(self, analysis):
        # Neural-net and PageRank inherit batch_reduce (the former loops
        # its reduce() through it, the latter passes per-phase reducers).
        callees = _callees(analysis, REDUCE_DISPATCH)
        assert {
            "repro.apps.kmeans.program::KMeansProgram.batch_reduce",
            "repro.apps.linsolve.program::LinearSolverProgram.batch_reduce",
            "repro.apps.smoothing.program::ImageSmoothingProgram.batch_reduce",
            "repro.pic.api::PICProgram.batch_reduce",
        } <= callees

    def test_reducer_dispatch_includes_pagerank_phases_and_be_closures(self, analysis):
        callees = _callees(analysis, REDUCE_DISPATCH)
        assert {
            "repro.apps.pagerank.program::PageRankProgram._reduce_aggregate",
            "repro.apps.pagerank.program::PageRankProgram._reduce_identity",
            f"{BE_ROUND}.reduce_elements",
            f"{BE_ROUND}.reduce_central",
        } <= callees

    def test_method_candidates_for_merge(self, analysis):
        candidates = set(
            analysis.graph.method_candidates("repro.pic.api.PICProgram", "merge")
        )
        assert "repro.apps.linsolve.program::LinearSolverProgram.merge" in candidates
        assert "repro.apps.smoothing.program::ImageSmoothingProgram.merge" in candidates


class TestSimulationFacts:
    def test_shuffle_arrival_is_a_flow_continuation(self, analysis):
        conts = analysis.flow_continuations()
        assert (
            "repro.mapreduce.runner::_JobState._make_bucket_arrival.<locals>.on_arrival"
            in conts
        )

    def test_dfs_block_callbacks_are_flow_continuations(self, analysis):
        conts = analysis.flow_continuations()
        assert (
            "repro.dfs.dfs::DistributedFileSystem.write.<locals>.block_part_done"
            in conts
        )

    def test_handler_reachable_covers_runner_internals(self, analysis):
        reached = analysis.handler_reachable()
        assert any(fid.startswith("repro.mapreduce.runner::") for fid in reached)
        assert len(reached) > 20
