"""Alias/escape/mutation summaries and their call-graph fixpoint.

Abstract values
---------------
An :class:`AVal` is two sets of *atoms*:

* ``ids`` — what object a value may *be*;
* ``contents`` — what its *elements* may be.

Atoms are ``("p", param, depth)`` with depth 0 (the parameter object
itself) or 1 (an element of it), ``("pa", param, attr)`` (the object
held by ``param.attr``), and ``("fn", fid)`` (a reference to a project
function).  A value with no ``p``/``pa`` atoms in ``ids`` is *fresh*:
mutating it cannot be observed by the caller.

Evaluation is flow-sensitive over the linear op list: rebinding a name
kills its aliases (the ``params = {k: v.copy() ...}`` defensive-copy
idiom stays silent), and both branches of a conditional execute
(may-analysis).  Unknown external calls return fresh values — the
analysis prefers silence to false positives.

Summaries
---------
Per function: which param atoms it mutates (and where), what its
return value aliases, which project functions it calls directly, which
parameters/functions it registers as flow continuations or event
handlers, and which substrate-private attribute writes it performs.
Summaries are propagated callee→caller over the call graph (mutations
and registrations map through the argument bindings; returns are
substituted) and iterated to a fixpoint, Gauss–Seidel style in
deterministic function order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.graph import (
    SUBSTRATE_NAMES,
    SUBSTRATE_PRIVATE_LEAVES,
    ProjectGraph,
)
from repro.lint.project.ir import attr_chain, callee_dotted, root_name
from repro.lint.project.walker import Walker, call_tail

Atom = tuple  # ("p", name, depth) | ("pa", name, attr) | ("fn", fid)

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class AVal:
    ids: frozenset = _EMPTY
    contents: frozenset = _EMPTY

    def __or__(self, other: "AVal") -> "AVal":
        return AVal(self.ids | other.ids, self.contents | other.contents)


FRESH = AVal()


def _collapse1(atoms: Iterable[Atom]) -> frozenset:
    """Demote every object atom to depth 1 (an element of it)."""
    out = set()
    for a in atoms:
        if a[0] == "p":
            out.add(("p", a[1], 1))
        elif a[0] == "pa":
            out.add(("p", a[1], 1))
        elif a[0] == "fn":
            out.add(a)
    return frozenset(out)


def _elements(av: AVal) -> frozenset:
    """Atoms an element of ``av`` may be."""
    return av.contents | _collapse1(av.ids)


def _element(av: AVal) -> AVal:
    """An element of ``av`` (index, iteration, unpacking, ``*av``)."""
    elems = _elements(av)
    return AVal(elems, _collapse1(elems))


def _holding(values: Iterable[AVal]) -> AVal:
    """A fresh object whose contents reach every one of ``values``."""
    contents: set = set()
    for av in values:
        contents.update(av.ids | av.contents)
    return AVal(_EMPTY, frozenset(contents))


# ----------------------------------------------------------------------
# External-call knowledge


#: Calls that break aliasing entirely (deep copy semantics).
DEEP_BREAKERS = frozenset({"copy.deepcopy", "json.loads", "pickle.loads"})
#: Constructors returning a *fresh* container of the argument's elements.
SHALLOW_COPIES = frozenset(
    {"list", "dict", "tuple", "set", "frozenset", "sorted", "reversed", "copy.copy"}
)
#: Element-pairing iterators: results contain the arguments' elements.
PAIRING = frozenset({"zip", "enumerate", "map", "filter", "itertools.chain"})
#: Calls returning an *element* of their argument.
ELEMENT_PICKS = frozenset({"min", "max", "next"})
#: Columnar constructors: fresh wrappers whose *contents* alias their
#: arguments (a ColumnBatch built from a shared column still reaches
#: the shared arrays).  Matched by trailing name so both the class and
#: its dotted import path hit.
COLUMN_CTORS = frozenset(
    {
        "ColumnBatch", "GroupedBatch", "ArrayColumn", "ScalarColumn",
        "StringColumn", "TupleColumn", "ObjectColumn",
    }
)

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "update", "setdefault", "popitem", "add", "discard",
        "fill", "resize", "put",
    }
)
#: Mutators that also *store* their arguments into the receiver.
STORING_MUTATORS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault"}
)
#: Non-mutating methods with known aliasing behaviour.
_METH_ELEMENT = frozenset({"get"})
_METH_VIEW = frozenset({"items", "keys", "values"})
_METH_SHALLOW = frozenset({"copy", "tolist", "most_common"})

#: Flow-registration primitives: callbacks handed to these become
#: *flow continuations* (PIC401: never call one synchronously).
#: ``on_ready`` is the SplitGate registrar — its callbacks fire from
#: flow completions (or inline at registration when the split is
#: already ready), so they carry the same no-sync-invoke contract.
#: ``_arm_component_timer`` is the per-component completion-timer
#: registrar: its callback fires from the event loop when the soonest
#: flow in one component finishes, so it is a continuation like any
#: ``transfer`` callback.  ``move``'s callback ends a flow or a disk
#: timer: a continuation either way.
_FLOW_POSITIONAL = {
    "transfer": 4,
    "move": 4,
    "start_flow": 4,
    "on_ready": 1,
    "_arm_component_timer": 2,
}
_FLOW_BATCH = frozenset({"transfer_batch", "start_flows"})
_FLOW_KW_ONLY = frozenset({"write", "read"})
#: Event/slot registration primitives: callbacks become *event
#: handlers* (PIC402 seeds).
_HANDLER_REGISTRARS = frozenset(
    {"schedule", "schedule_at", "schedule_serialized", "call_later", "request"}
)


@dataclass
class Summary:
    """Converged per-function facts, serializable for comparison."""

    mutations: dict[Atom, list] = field(default_factory=dict)
    ret: AVal = FRESH
    ret_sites: dict[Atom, list] = field(default_factory=dict)
    direct_calls: list = field(default_factory=list)
    registers_flow_params: set = field(default_factory=set)
    registers_handler_params: set = field(default_factory=set)
    flow_fns: set = field(default_factory=set)
    handler_fns: set = field(default_factory=set)
    bound: dict = field(default_factory=dict)  # class_fq -> {attr: {fid}}
    substrate_writes: list = field(default_factory=list)

    def key(self) -> str:
        return json.dumps(
            {
                "m": sorted([list(a), s] for a, s in self.mutations.items()),
                "ri": sorted(map(list, self.ret.ids)),
                "rc": sorted(map(list, self.ret.contents)),
                "dc": sorted(self.direct_calls),
                "fp": sorted(self.registers_flow_params),
                "hp": sorted(self.registers_handler_params),
                "ff": sorted(self.flow_fns),
                "hf": sorted(self.handler_fns),
                "b": {c: {a: sorted(f) for a, f in kw.items()} for c, kw in sorted(self.bound.items())},
                "sw": sorted(self.substrate_writes),
            },
            sort_keys=True,
        )


class _Evaluator(Walker):
    """The alias/escape/mutation domain over one function's walk."""

    bottom = FRESH

    def __init__(self, analysis: "ProjectAnalysis", fid: str) -> None:
        super().__init__(analysis, fid)
        self.summary = Summary()
        self._owns_substrate = self.modkey in self.graph.substrate_modules
        for p in self.fn["params"]:
            self.env[p] = AVal(frozenset({("p", p, 0)}), frozenset({("p", p, 1)}))

    # -- op hooks ------------------------------------------------------

    def mutate(
        self, target: list, value: list | None, stored: AVal, how: str, line: int, col: int
    ) -> None:
        self._mutated(target, stored, line, col, via="direct")

    def ret(self, value: AVal, line: int, col: int) -> None:
        self.summary.ret = self.summary.ret | value
        for atom in value.ids | value.contents:
            self.summary.ret_sites.setdefault(atom, [line, col])

    def with_item(self, var: str, value: AVal) -> None:
        super().with_item(var, FRESH)

    # -- mutation recording --------------------------------------------

    def _mutated(self, target: list, value: AVal, line: int, col: int, via: str) -> None:
        """Record a store/del/aug/mutator-method hit on ``target``."""
        if target[0] == "attr":
            base = self.eval(target[1])
            attr = target[2]
            for atom in base.ids:
                if atom[0] == "p" and atom[2] == 0:
                    self._add_mutation(("pa", atom[1], attr), line, col, via)
                elif atom[0] in ("p", "pa"):
                    self._add_mutation(_one(_collapse1({atom})), line, col, via)
        else:
            base_desc = target[1] if target[0] in ("elem", "slice") else target
            base = self.eval(base_desc)
            for atom in base.ids:
                if atom[0] in ("p", "pa"):
                    self._add_mutation(atom, line, col, via)
        self._check_substrate_write(target, line, col)
        root = root_name(target)
        if root is not None and root in self.env:
            # Stored values keep their depth: appending a tuple that
            # holds a level-0 parameter makes the receiver's contents
            # reach that parameter (list.append / d[k] = v / insert).
            extra = value.ids | value.contents
            if extra:
                old = self.env[root]
                self.env[root] = AVal(old.ids, old.contents | frozenset(extra))

    def _add_mutation(self, atom: Atom, line: int, col: int, via: str) -> None:
        self.summary.mutations.setdefault(atom, [line, col, via])

    def _check_substrate_write(self, target: list, line: int, col: int) -> None:
        """Flag ``<substrate>._private`` writes outside the owning class."""
        chain = attr_chain(target)
        if chain is None:
            return
        names, leaf = chain
        if not leaf.startswith("_") or leaf.startswith("__"):
            return
        if self._owns_substrate or self.graph.is_substrate_class(self.cls):
            return
        # Type-based: the receiver's static class is a substrate class.
        recv_desc = target[1] if target[0] in ("elem", "slice") else target
        if recv_desc[0] == "attr":
            recv_type = self.type_of(recv_desc[1])
        else:
            recv_type = None
        typed = self.graph.is_substrate_class(recv_type)
        named = any(n in SUBSTRATE_NAMES for n in names)
        # Leaf-based: partition-maintenance state is substrate-private
        # no matter what the receiver is called — ``flows._dirty_links``
        # through an unconventional alias is still a PIC402 write.
        private_leaf = leaf in SUBSTRATE_PRIVATE_LEAVES and names != ["self"]
        if typed or named or private_leaf:
            self.summary.substrate_writes.append(
                [line, col, ".".join(names + [leaf])]
            )

    # -- descriptor hooks ----------------------------------------------

    def attr(self, desc: list, base: AVal) -> AVal:
        ids = set()
        for atom in base.ids:
            if atom[0] == "p" and atom[2] == 0:
                ids.add(("pa", atom[1], desc[2]))
            elif atom[0] in ("p", "pa"):
                ids.update(_collapse1({atom}))
        # A method reference on a known class is a function ref.
        base_t = self.type_of(desc[1])
        if base_t is not None:
            for fid in self.graph.method_candidates(base_t, desc[2]):
                ids.add(("fn", fid))
            for fid in self.an.bound_callbacks(base_t, desc[2]):
                ids.add(("fn", fid))
        return AVal(frozenset(ids), _collapse1(ids))

    def sub(self, kind: str, base: AVal) -> AVal:
        if kind == "slice":
            return AVal(frozenset(a for a in base.ids if a[0] == "fn"), _elements(base))
        return _element(base)  # elem; a spread yields elements too

    def item(self, desc: list, value: AVal) -> AVal:
        # A display holds its items, and through them what they hold; a
        # spread item contributes the elements themselves.
        held = value.ids if desc[0] == "spread" else value.ids | value.contents
        return AVal(_EMPTY, held)

    def comp_bind(self, names: list[str], value: AVal) -> AVal:
        return super().comp_bind(names, _element(value))

    def bin(self, desc: list, left: AVal, right: AVal) -> AVal:
        return AVal(_EMPTY, left.contents | right.contents)

    def fnref(self, fid: str) -> AVal:
        return AVal(frozenset({("fn", fid)}))

    # -- calls ---------------------------------------------------------

    def call(self, desc: list, args: list[AVal], kwargs: dict[str, AVal]) -> AVal:
        _, func, _args, _kwargs, line, col = desc
        tail = call_tail(func)

        self._scan_registrations(func, tail, args, kwargs)

        callees = self._resolve_callees(func, tail)
        result = FRESH
        if callees:
            for fid in callees:
                self.summary.direct_calls.append([fid, line, col])
                result = result | self._apply_summary(fid, func, args, kwargs, line, col)
            return result

        cfq = self.ctor_class(func)
        if cfq is not None:
            self._record_ctor_bindings(cfq, kwargs)
            ctor = self.graph.inherited_method(cfq, "__init__")
            if ctor is not None:
                self._apply_summary(ctor, ["ref", "__init__"], [FRESH] + args, kwargs, line, col)
            return _holding(args + list(kwargs.values()))

        return self._external_call(
            func, tail, callee_dotted(func, self.aliases), args, line, col
        )

    def _resolve_callees(self, func: list, tail: str | None) -> list[str]:
        """Project functions this call may invoke directly."""
        out: list[str] = []
        if func[0] == "ref":
            name = func[1]
            bound = self.env.get(name)
            if bound is not None:
                out.extend(a[1] for a in sorted(bound.ids) if a[0] == "fn")
            if not out:
                dotted = self.aliases.get(name, None)
                if dotted is None:
                    dotted = f"{self.modkey}.{name}"
                fid = self.graph.resolve_function(dotted)
                if fid is not None:
                    out.append(fid)
        elif func[0] == "meth":
            base_desc, attr = func[1], func[2]
            dotted = callee_dotted(func, self.aliases)
            fid = self.graph.resolve_function(dotted) if dotted else None
            if fid is not None:
                return [fid]
            base_t = self.type_of(base_desc)
            if base_t is not None:
                out.extend(self.graph.method_candidates(base_t, attr))
                out.extend(
                    f for f in self.an.bound_callbacks(base_t, attr) if f not in out
                )
            else:
                base_av = self.eval(base_desc)
                out.extend(a[1] for a in sorted(base_av.ids) if a[0] == "fn")
        elif func[0] == "desc":
            av = self.eval(func[1])
            out.extend(a[1] for a in sorted(av.ids) if a[0] == "fn")
        return out

    def receiver(self, func: list) -> AVal:
        return self.eval(func[1]) if func[0] == "meth" else FRESH

    def _apply_summary(
        self,
        fid: str,
        func: list,
        args: list[AVal],
        kwargs: dict[str, AVal],
        line: int,
        col: int,
    ) -> AVal:
        callee = self.graph.function_ir.get(fid)
        summary = self.an.fix.read(fid)
        if callee is None or summary is None:
            return FRESH
        argmap = self.bind_args(callee, func, args, kwargs)

        def subst(atoms: Iterable[Atom]) -> frozenset:
            out = set()
            for atom in atoms:
                if atom[0] == "fn":
                    out.add(atom)
                elif atom[0] == "p":
                    av = argmap.get(atom[1])
                    if av is None:
                        continue
                    out.update(av.ids if atom[2] == 0 else _elements(av))
                elif atom[0] == "pa":
                    av = argmap.get(atom[1])
                    if av is None:
                        continue
                    for a in av.ids:
                        if a[0] == "p" and a[2] == 0:
                            out.add(("pa", a[1], atom[2]))
                        else:
                            out.update(_collapse1({a}))
            return frozenset(out)

        via = callee["name"]
        for atom in summary.mutations:
            for mapped in subst({atom}):
                if mapped[0] in ("p", "pa"):
                    self._add_mutation(mapped, line, col, via)
        for pname in summary.registers_flow_params:
            av = argmap.get(pname)
            if av is not None:
                self._register_flow(av)
        for pname in summary.registers_handler_params:
            av = argmap.get(pname)
            if av is not None:
                self._register_handler(av)
        return AVal(subst(summary.ret.ids), subst(summary.ret.contents))

    def _external_call(
        self,
        func: list,
        tail: str | None,
        dotted: str | None,
        args: list[AVal],
        line: int,
        col: int,
    ) -> AVal:
        key = dotted or tail
        if key is not None and key.rsplit(".", 1)[-1] in COLUMN_CTORS:
            return _holding(args)
        if key in DEEP_BREAKERS:
            return FRESH
        if key in SHALLOW_COPIES or tail in SHALLOW_COPIES and func[0] == "ref":
            if not args:
                return FRESH
            return AVal(_EMPTY, _elements(args[0]))
        if (key in PAIRING or tail in PAIRING and func[0] == "ref") and args:
            contents = set()
            for av in args:
                contents.update(_elements(av))
            return AVal(_EMPTY, frozenset(contents))
        if key in ELEMENT_PICKS and args:
            return _element(args[0])
        if func[0] == "meth":
            base = self.eval(func[1])
            attr = func[2]
            if attr in MUTATOR_METHODS:
                value = FRESH
                if attr in STORING_MUTATORS:
                    for av in args:
                        value = value | av
                self._mutated(func[1], value, line, col, via=f".{attr}()")
                if attr in ("pop", "popitem"):
                    return _element(base)
                return FRESH
            if attr in _METH_ELEMENT:
                return _element(base)
            if attr in _METH_VIEW:
                return AVal(_EMPTY, _elements(base))
            if attr in _METH_SHALLOW:
                return AVal(_EMPTY, _elements(base))
        return FRESH

    # -- registration scanning -----------------------------------------

    def _scan_registrations(
        self,
        func: list,
        tail: str | None,
        args: list[AVal],
        kwargs: dict[str, AVal],
    ) -> None:
        if tail is None or func[0] != "meth":
            return
        if tail in _FLOW_POSITIONAL or tail in _FLOW_KW_ONLY:
            idx = _FLOW_POSITIONAL.get(tail)
            if idx is not None and len(args) > idx:
                self._register_flow(args[idx])
            if "on_complete" in kwargs:
                self._register_flow(kwargs["on_complete"])
        elif tail in _FLOW_BATCH:
            for av in list(args) + list(kwargs.values()):
                self._register_flow(av)
        elif tail in _HANDLER_REGISTRARS:
            for av in list(args) + list(kwargs.values()):
                self._register_handler(av)

    def _register_flow(self, av: AVal) -> None:
        self._register(av, self.summary.flow_fns, self.summary.registers_flow_params)

    def _register_handler(self, av: AVal) -> None:
        self._register(
            av, self.summary.handler_fns, self.summary.registers_handler_params
        )

    @staticmethod
    def _register(av: AVal, fns: set, params: set) -> None:
        """A registrar takes ``av``: the functions it may be, and the
        parameters whose callers hand the function in."""
        for atom in av.ids | av.contents:
            if atom[0] == "fn":
                fns.add(atom[1])
            elif atom[0] in ("p", "pa"):
                params.add(atom[1])

    def _record_ctor_bindings(self, cfq: str, kwargs: dict[str, AVal]) -> None:
        for kw, av in kwargs.items():
            fids = {atom[1] for atom in av.ids | av.contents if atom[0] == "fn"}
            if fids:
                self.summary.bound.setdefault(cfq, {}).setdefault(kw, set()).update(
                    fids
                )


def _one(atoms: frozenset) -> Atom:
    return min(atoms, default=("p", "?", 1))


class ProjectAnalysis:
    """Converged whole-program facts, ready for project rules."""

    MAX_ROUNDS = 8

    def __init__(self, modules: Iterable[dict[str, Any]]) -> None:
        self.graph = ProjectGraph(modules)
        self.fix = Fixpoint()
        self.summaries: dict[str, Summary] = self.fix.summaries
        #: (class, ctor keyword) -> functions bound there, as of last round.
        self._bound: dict[tuple[str, str], set] = {}
        self._units: Any = None
        self.fix.run(
            sorted(self.graph.function_ir),
            lambda fid: _Evaluator(self, fid).run(),
            self.MAX_ROUNDS,
            self._rebind,
        )
        #: (caller fid, line, col) -> callee fids, for the unit-taint pass.
        self.callsites: dict[tuple[str, int, int], list[str]] = {}
        for fid in sorted(self.summaries):
            for callee, line, col in self.summaries[fid].direct_calls:
                self.callsites.setdefault((fid, line, col), []).append(callee)

    def functions_evaluated(self) -> int:
        """Fixpoint evaluations so far: the alias pass, plus the unit
        pass once it has run."""
        units = self._units.fix.evaluations if self._units is not None else 0
        return self.fix.evaluations + units

    def unit_taint(self) -> Any:
        """Lazily-run quantity-unit taint analysis (PIC202, PIC6xx rules)."""
        if self._units is None:
            from repro.lint.project.units import UnitAnalysis

            self._units = UnitAnalysis(self)
        return self._units

    def bound_callbacks(self, cfq: str, attr: str) -> list[str]:
        """Functions bound to ``cfq(attr=...)`` at any constructor site."""
        out: set = set()
        for cls in self.graph.ancestors(cfq) or [cfq]:
            self.fix.note((cls, attr))
            out.update(self._bound.get((cls, attr), ()))
        return sorted(out)

    def _rebind(self) -> None:
        """End of a round: rebuild the bound-callback table from every
        summary and touch each entry that moved."""
        old, self._bound = self._bound, {}
        for summary in self.summaries.values():
            for cfq, kws in summary.bound.items():
                for kw, fids in kws.items():
                    self._bound.setdefault((cfq, kw), set()).update(fids)
        for cell in old.keys() | self._bound.keys():
            if old.get(cell) != self._bound.get(cell):
                self.fix.touch(cell)

    # -- derived facts for rules ---------------------------------------

    def flow_continuations(self) -> set:
        out: set = set()
        for summary in self.summaries.values():
            out.update(summary.flow_fns)
        return out

    def handler_reachable(self) -> set:
        """Functions that may execute during simulated event dispatch:
        every registered handler and flow continuation, and everything
        they reach over resolved calls."""
        reached = self.flow_continuations()
        for summary in self.summaries.values():
            reached.update(summary.handler_fns)
        frontier = sorted(reached)
        while frontier:
            fid = frontier.pop()
            summary = self.summaries.get(fid)
            if summary is None:
                continue
            for callee, _line, _col in summary.direct_calls:
                if callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
        return reached
