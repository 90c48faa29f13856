"""PIC3xx: cross-partition aliasing (whole-program).

PIC's best-effort phase is only correct if sub-problems are
*independent*: ``partition()`` must hand each sub-problem data and
model objects it owns, ``merge()`` must not scribble on the partial
models it is combining, and map/reduce callbacks must not mutate
records they received by reference (the simulator shares record lists
between "nodes" for speed — a mutation is invisible communication that
a real cluster would not deliver).

These rules read the converged alias/mutation summaries from
:mod:`repro.lint.project.analysis`; they see through local helper
functions, defensive-copy rebinds, and the library's default
``partition``/``merge`` implementations.
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


class MergeMutationRule(ProjectRule):
    """PIC302: ``merge``/``merge_element`` mutate partial models."""

    rule_id = "PIC302"
    summary = "merge()/merge_element() mutates the partial models it combines"

    _METHODS = (("merge", (1,)), ("merge_element", (2,)))

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        for cfq in project.graph.program_classes():
            for mname, indices in self._METHODS:
                found = _method(project, cfq, mname)
                if found is None:
                    continue
                fid, fn, summary = found
                for param in _data_params(fn, indices):
                    for atom, (line, col, via) in sorted(
                        summary.mutations.items()
                    ):
                        if atom[1] != param or atom[0] not in ("p", "pa"):
                            continue
                        how = (
                            "mutates" if via == "direct" else f"mutates (via {via})"
                        )
                        what = (
                            f"the '{param}' argument"
                            if atom == ("p", param, 0)
                            else f"a partial model inside '{param}'"
                        )
                        yield project_finding(
                            project,
                            self.rule_id,
                            fid,
                            line,
                            col,
                            f"{mname}() {how} {what} in place; best-effort "
                            "rounds reuse the partial models, so merge must "
                            "build a fresh result (dict(models[0]), "
                            "concat_merge, average_merge...).",
                        )
                        break  # one finding per data param is enough


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
                    if (
                        atom[0] == "pa"
                        and atom[2] in ColumnViewRule._COLUMN_ATTRS
                    ):
                        continue  # column writes are PIC304's, with a better message
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


class ColumnViewRule(ProjectRule):
    """PIC304: ColumnBatch column views escape or are written in place.

    Columnar splits share their backing numpy arrays aggressively:
    ``slice``/``take`` return views where possible, and ``batch_map``
    hands callbacks the split's columns directly.  That is safe only as
    long as the columns are treated as immutable.  Two ways to break it:

    * ``partition()`` returns a *column attribute* of the shared
      records/model (``records.keys``, ``batch.values``...) — the
      sub-problems now share backing arrays, which is invisible
      cross-partition communication (PIC301 only catches the container
      itself escaping, not its columns);
    * a batch callback writes a column of its input batch in place
      (``records.values.fill(...)``, ``grouped.sorted_keys.sort()``) —
      the same arrays back other splits and the DFS copy of the data.

    Emitting a read-only view (k-means emits the input point matrix
    untouched) is fine and stays silent: the rule fires on attribute
    *escape from partition* and attribute *mutation*, not on emits.
    """

    rule_id = "PIC304"
    summary = "ColumnBatch column views escape partition() or are mutated by callbacks"

    #: batch callback name -> index of the batch-bearing parameter
    _BATCH_CALLBACKS = {"batch_map": 2, "batch_reduce": 2, "combine_batch": 1}
    #: attributes that are (or hold) numpy-backed columns
    _COLUMN_ATTRS = frozenset(
        {"keys", "values", "data", "slots", "sorted_keys", "sorted_values", "starts"}
    )

    def check_project(self, project: ProjectAnalysis) -> Iterator[Finding]:
        for cfq in project.graph.program_classes():
            yield from self._partition_escapes(project, cfq)
            yield from self._callback_mutations(project, cfq)

    def _partition_escapes(
        self, project: ProjectAnalysis, cfq: str
    ) -> Iterator[Finding]:
        found = _method(project, cfq, "partition")
        if found is None:
            return
        fid, fn, summary = found
        escaped = summary.ret.ids | summary.ret.contents
        for param in _data_params(fn, (1, 2)):
            for atom in sorted(a for a in escaped if a[0] == "pa"):
                if atom[1] != param or atom[2] not in self._COLUMN_ATTRS:
                    continue
                line, col = summary.ret_sites.get(atom, [fn["line"], 0])
                yield project_finding(
                    project,
                    self.rule_id,
                    fid,
                    line,
                    col,
                    f"partition() returns '{param}.{atom[2]}' — a column "
                    "view into the shared batch; sub-problems sharing "
                    "backing arrays is invisible cross-partition "
                    "communication. Rebuild the column (copy the array, "
                    "ColumnBatch.from_rows) so each sub-problem owns its "
                    "data.",
                )

    def _callback_mutations(
        self, project: ProjectAnalysis, cfq: str
    ) -> Iterator[Finding]:
        for mname, index in sorted(self._BATCH_CALLBACKS.items()):
            found = _method(project, cfq, mname)
            if found is None:
                continue
            fid, fn, summary = found
            data = set(_data_params(fn, (index,)))
            for atom, (line, col, _via) in sorted(summary.mutations.items()):
                if (
                    atom[0] == "pa"
                    and atom[1] in data
                    and atom[2] in self._COLUMN_ATTRS
                ):
                    yield project_finding(
                        project,
                        self.rule_id,
                        fid,
                        line,
                        col,
                        f"{mname}() writes the '{atom[2]}' column of "
                        f"'{atom[1]}' in place; columns are numpy views "
                        "shared with other splits and the DFS copy — write "
                        "into a fresh array (column data .copy()) and emit "
                        "that instead.",
                    )
                    break  # one finding per callback is enough
