"""PIC3xx: cross-partition aliasing (whole-program).

PIC's best-effort phase is only correct if sub-problems are
*independent*: ``partition()`` must hand each sub-problem data and
model objects it owns, and map/reduce callbacks must not mutate
records they received by reference (the simulator shares record lists
between "nodes" for speed — a mutation is invisible communication that
a real cluster would not deliver).

A column a batch callback writes in place (``records.values.fill(0)``)
is such a mutation too, and PIC303 reports it; at run time the write
itself raises, because every array handed to a callback is read-only
(:func:`repro.mapreduce.columnar.read_only`).  That guard alone covers
``merge()``: the partial models it combines are ``KeyedModel`` objects,
which have no setters and whose arrays are read-only, so a merge
writing into one raises at the write.

These rules read the converged alias/mutation summaries from
:mod:`repro.lint.project.analysis`; they see through local helper
functions, defensive-copy rebinds, and the library's default
``partition`` implementations.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.model import Finding
from repro.lint.project.analysis import ProjectAnalysis, Summary
from repro.lint.rules import ProjectRule, project_finding


def _method(
    project: ProjectAnalysis, cfq: str, name: str
) -> tuple[str, dict, Summary] | None:
    """(fid, function IR, summary) for ``name`` defined *on* ``cfq``."""
    fid = project.graph.own_method(cfq, name)
    if fid is None:
        return None
    fn = project.graph.function_ir.get(fid)
    summary = project.summaries.get(fid)
    if fn is None or summary is None:
        return None
    return fid, fn, summary


def _data_params(fn: dict, indices: tuple[int, ...]) -> list[str]:
    params = fn["params"]
    return [params[i] for i in indices if i < len(params)]


class PartitionAliasingRule(ProjectRule):
    """PIC301: ``partition()`` leaks references to shared input/model."""

    rule_id = "PIC301"
    summary = "partition() returns references into the shared records/model objects"

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        for cfq in project.graph.program_classes():
            found = _method(project, cfq, "partition")
            if found is None:
                continue
            fid, fn, summary = found
            escaped = summary.ret.ids | summary.ret.contents
            for param in _data_params(fn, (1, 2)):
                atom = ("p", param, 0)
                if atom in escaped:
                    line, col = summary.ret_sites.get(atom, [fn["line"], 0])
                    yield project_finding(
                        project,
                        self.rule_id,
                        fid,
                        line,
                        col,
                        f"partition() may return the shared '{param}' object "
                        "itself (or a container holding it); each sub-problem "
                        "must own its data and model — deep-copy or rebuild "
                        "(see repro.pic.partitioners.replicate_model).",
                    )


class CallbackRecordMutationRule(ProjectRule):
    """PIC303: map/reduce callbacks mutate records or the shared model."""

    rule_id = "PIC303"
    summary = "map/reduce callback mutates records or ctx.model received by reference"

    #: callback name -> (indices of record-bearing params, ctx index or None)
    _CALLBACKS = {
        "map": ((2, 3), 1),
        "batch_map": ((2,), 1),
        "reduce": ((2, 3), 1),
        "batch_reduce": ((2,), 1),
        "combine": ((1, 2), None),
        "combine_batch": ((1,), None),
    }

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        for cfq in project.graph.program_classes():
            for mname, (indices, ctx_index) in sorted(self._CALLBACKS.items()):
                found = _method(project, cfq, mname)
                if found is None:
                    continue
                fid, fn, summary = found
                data = set(_data_params(fn, indices))
                ctx = (
                    fn["params"][ctx_index]
                    if ctx_index is not None and ctx_index < len(fn["params"])
                    else None
                )
                seen: set[str] = set()
                for atom, (line, col, via) in sorted(summary.mutations.items()):
                    if atom[1] in data and atom[1] not in seen:
                        seen.add(atom[1])
                        yield project_finding(
                            project,
                            self.rule_id,
                            fid,
                            line,
                            col,
                            f"{mname}() mutates the '{atom[1]}' records it "
                            "received by reference; the simulator shares "
                            "record lists between nodes, so this is invisible "
                            "cross-node communication. Copy before mutating.",
                        )
                    elif (
                        ctx is not None
                        and atom == ("pa", ctx, "model")
                        and "model" not in seen
                    ):
                        seen.add("model")
                        yield project_finding(
                            project,
                            self.rule_id,
                            fid,
                            line,
                            col,
                            f"{mname}() mutates ctx.model in place; the model "
                            "object is shared across every task on a node — "
                            "emit updates and fold them in build_model() "
                            "instead.",
                        )
