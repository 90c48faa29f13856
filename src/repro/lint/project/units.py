"""Quantity-unit taint analysis (PIC601–PIC602).

The simulator's credibility rests on never mixing *simulated*
quantities with *host* quantities.  This pass seeds unit qualifiers at
known sources, propagates them through binds, arithmetic, containers
and project-function returns, and flags two violations:

* **PIC601 — cross-unit arithmetic/comparison**: adding, subtracting
  or ordering two values whose units conflict (``sim_seconds`` vs
  ``wall_seconds``, seconds vs bytes, seconds vs record counts).
  Multiplication and division never conflict — rates and scalings are
  the whole point of mixed units.
* **PIC602 — tainted value reaches a simulated sink**: a quantity with
  the wrong unit flows into a simulated-time or simulated-bytes API
  argument (``sim.schedule(delay)``, ``cluster.transfer(...,
  nbytes, ...)``, ``meter.record(...)``) — the classic bug being a
  ``time.perf_counter()`` difference fed into a simulated metric.

Sources
-------
=============== =======================================================
unit            seeded from
=============== =======================================================
``wall_s``      ``time.time/perf_counter/monotonic/process_time`` (and
                ``_ns`` variants), ``timeit.default_timer``
``sim_s``       ``.now``/``peek_time()`` on a simulation/cluster
                receiver, ``transfer_time(...)``
``sim_b``       ``sizeof_records/sizeof_record/sizeof_value``,
                ``nbytes_wire`` calls and attributes, ``.nbytes``
``count``       ``len(...)``
=============== =======================================================

``count`` + ``sim_b`` is deliberately *not* a conflict (byte totals
are legitimately built from ``len(encoded)``); the per-file PIC202
rule owns the raw ``len``-as-flow-size case.  Interprocedurally, each
function's summary carries the units its return value may hold (with
parameter-polymorphic pass-through) and which parameters flow into
simulated sinks, iterated to a fixpoint over the call graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.graph import SUBSTRATE_NAMES
from repro.lint.project.ir import callee_dotted

if TYPE_CHECKING:
    from repro.lint.project.analysis import ProjectAnalysis

WALL_S = "wall_s"
SIM_S = "sim_s"
SIM_B = "sim_b"
COUNT = "count"

UNIT_NOUN = {
    WALL_S: "wall-clock seconds",
    SIM_S: "simulated seconds",
    SIM_B: "simulated wire bytes",
    COUNT: "a record count",
}

#: Unordered unit pairs whose +/-/comparison is always a bug.
CONFLICTS = frozenset(
    {
        frozenset({WALL_S, SIM_S}),
        frozenset({WALL_S, SIM_B}),
        frozenset({WALL_S, COUNT}),
        frozenset({SIM_S, SIM_B}),
        frozenset({SIM_S, COUNT}),
    }
)

_WALL_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "timeit.default_timer",
    }
)
#: Method tails returning simulated seconds on any receiver.
_SIM_S_METHODS = frozenset({"transfer_time", "peek_time"})
#: Attributes that are simulated clocks, on simulation-ish receivers.
_SIM_CLOCK_ATTRS = frozenset({"now"})
_SIM_RECEIVERS = SUBSTRATE_NAMES | frozenset({"self"})
_SIM_B_CALLS = frozenset(
    {"sizeof_records", "sizeof_record", "sizeof_value", "nbytes_wire"}
)
_SIM_B_ATTRS = frozenset({"nbytes", "nbytes_wire"})
_COUNT_CALLS = frozenset({"len"})

#: External calls whose result carries their first argument's units.
_PROPAGATORS = frozenset(
    {"sum", "min", "max", "abs", "round", "sorted", "float", "int"}
)

#: Arithmetic operators where mixed units are a bug.
_ADDITIVE_OPS = frozenset({"Add", "Sub"})
#: Comparison operators where mixed units are a bug.
_ORDERING_OPS = frozenset({"Lt", "LtE", "Gt", "GtE", "Eq", "NotEq"})

#: Simulated sinks: method tail -> (positional index, kw name, unit).
SINKS: dict[str, tuple[int, str, str]] = {
    "schedule": (0, "delay", SIM_S),
    "schedule_at": (0, "time", SIM_S),
    "run_until": (0, "time", SIM_S),
    "start_flow": (2, "nbytes", SIM_B),
    "transfer": (2, "nbytes", SIM_B),
    "record": (1, "nbytes", SIM_B),
}

Units = frozenset  # of unit tags and ("param", name) markers

_EMPTY: Units = frozenset()


class UnitSummary:
    """Units a function's return may carry; params feeding sim sinks."""

    def __init__(self) -> None:
        self.ret: Units = _EMPTY
        #: param name -> sink units it (transitively) flows into.
        self.param_sinks: dict[str, frozenset[str]] = {}

    def key(self) -> tuple:
        return (
            tuple(sorted(map(str, self.ret))),
            tuple(sorted((p, tuple(sorted(u))) for p, u in self.param_sinks.items())),
        )


class UnitAnalysis:
    """Converged unit summaries plus the findings they imply."""

    MAX_ROUNDS = 6

    def __init__(self, project: "ProjectAnalysis") -> None:
        self.project = project
        self.graph = project.graph
        self.callsites = project.callsites
        self.fix = Fixpoint()
        self.summaries: dict[str, UnitSummary] = self.fix.summaries
        self.findings: list[tuple[str, str, int, int, str]] = []
        self.fix.run(
            sorted(self.graph.function_ir),
            lambda fid: _UnitWalker(self, fid, report=False).run(),
            self.MAX_ROUNDS,
        )
        self._collect()

    def _collect(self) -> None:
        for fid in sorted(self.graph.function_ir):
            walker = _UnitWalker(self, fid, report=True)
            walker.run()
            self.findings.extend(walker.findings)


def _concrete(units: Units) -> frozenset:
    return frozenset(u for u in units if isinstance(u, str))


def _conflict(a: Units, b: Units) -> tuple[str, str] | None:
    for ua in sorted(_concrete(a)):
        for ub in sorted(_concrete(b)):
            if frozenset({ua, ub}) in CONFLICTS:
                return ua, ub
    return None


class _UnitWalker:
    """One taint pass over a function's ops (blocks walked in order)."""

    def __init__(self, an: UnitAnalysis, fid: str, report: bool) -> None:
        self.an = an
        self.graph = an.graph
        self.fid = fid
        self.fn = self.graph.function_ir[fid]
        self.modkey = fid.split("::", 1)[0]
        ir = self.graph.modules.get(self.modkey) or {"aliases": {}}
        self.aliases: dict[str, str] = ir.get("aliases", {})
        self.report = report
        self.summary = UnitSummary()
        self.findings: list[tuple[str, str, int, int, str]] = []
        self.env: dict[str, Units] = {}
        self._seen: set[tuple] = set()

    def run(self) -> UnitSummary:
        for p in self.fn["params"]:
            self.env[p] = frozenset({("param", p)})
        self.walk(self.fn["ops"])
        return self.summary

    # -- ops -----------------------------------------------------------

    def walk(self, ops: Iterable[list]) -> None:
        for op in ops:
            self.op(op)

    def op(self, op: list) -> None:
        kind = op[0]
        if kind == "bind":
            _, name, desc, line = op
            self.env[name] = self.eval(desc, line)
        elif kind == "unpack":
            _, names, desc, line = op
            units = self.eval(desc, line)
            for name in names:
                self.env[name] = units
        elif kind == "eval":
            self.eval(op[1], op[2])
        elif kind == "mutate":
            _, target, value, how, line, col = op
            value_units = self.eval(value, line) if value is not None else _EMPTY
            target_units = self.eval(target, line) if target is not None else _EMPTY
            if how.startswith("aug:") and how[4:] in _ADDITIVE_OPS:
                self._check_mix(target_units, value_units, how[4:], line, col)
            if target[0] == "name":
                self.env[target[1]] = self.env.get(target[1], _EMPTY) | value_units
        elif kind == "ret":
            _, desc, line, col = op
            self.summary.ret = self.summary.ret | self.eval(desc, line)
        elif kind == "raise":
            if op[1] is not None:
                self.eval(op[1], op[2])
        elif kind == "defl":
            self.env[op[1]] = _EMPTY
        elif kind == "kill":
            self.env.pop(op[1], None)
        elif kind == "if":
            self.eval(op[1], op[4])
            self.walk(op[2])
            self.walk(op[3])
        elif kind == "with":
            for ctx, var in op[1]:
                units = self.eval(ctx, op[3])
                if var is not None:
                    self.env[var] = units
            self.walk(op[2])
        elif kind == "try":
            self.walk(op[1])
            for _name, handler_ops in op[2]:
                self.walk(handler_ops)
            self.walk(op[3])
            self.walk(op[4])

    # -- expressions ---------------------------------------------------

    def eval(self, desc: Any, line: int) -> Units:
        if not isinstance(desc, list) or not desc:
            return _EMPTY
        kind = desc[0]
        if kind == "const":
            return _EMPTY
        if kind == "name":
            return self.env.get(desc[1], _EMPTY)
        if kind == "attr":
            base = self.eval(desc[1], line)
            attr = desc[2]
            if attr in _SIM_B_ATTRS:
                return frozenset({SIM_B})
            if attr in _SIM_CLOCK_ATTRS and self._sim_receiver(desc[1]):
                return frozenset({SIM_S})
            if attr in ("sim_seconds", "sim_time"):
                return frozenset({SIM_S})
            return _EMPTY if base is _EMPTY else _EMPTY
        if kind in ("elem", "slice", "spread"):
            # Elements of a tainted container carry the container's units.
            return self.eval(desc[1], line)
        if kind == "make":
            units = _EMPTY
            for item in desc[1]:
                units = units | self.eval(item, line)
            return units
        if kind == "comp":
            saved = dict(self.env)
            try:
                for names, it in desc[1]:
                    it_units = self.eval(it, line)
                    for name in names:
                        self.env[name] = it_units
                units = _EMPTY
                for elt in desc[2]:
                    units = units | self.eval(elt, line)
            finally:
                self.env = saved
            return units
        if kind == "union":
            units = _EMPTY
            for item in desc[1]:
                units = units | self.eval(item, line)
            return units
        if kind == "bin":
            _, op_name, left, right, bline, bcol = desc
            lu = self.eval(left, bline)
            ru = self.eval(right, bline)
            if op_name in _ADDITIVE_OPS:
                self._check_mix(lu, ru, op_name, bline, bcol)
                return lu | ru
            if op_name in ("Mult", "Div", "FloorDiv", "Mod", "Pow", "MatMult"):
                # Rates/scalings: result keeps no committed unit.
                return _EMPTY
            return lu | ru
        if kind == "cmp":
            _, op_names, items, cline, ccol = desc
            item_units = [self.eval(item, cline) for item in items]
            for i, op_name in enumerate(op_names):
                if op_name in _ORDERING_OPS and i + 1 < len(item_units):
                    self._check_mix(
                        item_units[i], item_units[i + 1], op_name, cline, ccol,
                        comparison=True,
                    )
            return _EMPTY
        if kind == "seq":
            for item in desc[1]:
                self.eval(item, line)
            return _EMPTY
        if kind == "walrus":
            units = self.eval(desc[2], line)
            self.env[desc[1]] = units
            return units
        if kind == "fnref":
            return _EMPTY
        if kind == "call":
            return self.eval_call(desc)
        return _EMPTY

    def eval_call(self, desc: list) -> Units:
        _, func, args, kwargs, line, col = desc
        arg_units = [self.eval(a, line) for a in args]
        kw_units = {kw: self.eval(d, line) for kw, d in kwargs}

        tail = func[2] if func[0] == "meth" else (func[1] if func[0] == "ref" else None)
        dotted = callee_dotted(func, self.aliases)

        self._check_sinks(func, tail, arg_units, kw_units, line, col)

        # Seeds.
        if dotted in _WALL_CALLS:
            return frozenset({WALL_S})
        if tail in _SIM_B_CALLS or (
            dotted is not None and dotted.rpartition(".")[2] in _SIM_B_CALLS
        ):
            return frozenset({SIM_B})
        if func[0] == "meth" and tail in _SIM_S_METHODS:
            return frozenset({SIM_S})
        if func[0] == "ref" and tail in _COUNT_CALLS:
            return frozenset({COUNT})

        # Project callees: substitute the return summary.
        callees = self.an.callsites.get((self.fid, line, col), [])
        if callees:
            out: set = set()
            for callee in callees:
                out |= self._apply_summary(
                    callee, func, arg_units, kw_units, line, col
                )
            return frozenset(out)

        # Unit-preserving builtins.
        if func[0] == "ref" and tail in _PROPAGATORS and arg_units:
            units = arg_units[0]
            if tail in ("min", "max"):
                for u in arg_units[1:]:
                    units = units | u
            return units
        return _EMPTY

    def _apply_summary(
        self,
        fid: str,
        func: list,
        arg_units: list[Units],
        kw_units: dict[str, Units],
        line: int,
        col: int,
    ) -> set:
        callee = self.graph.function_ir.get(fid)
        summary = self.an.fix.read(fid)
        if callee is None or summary is None:
            return set()
        params = callee["params"]
        rest = params[1:] if (
            callee["class"] is not None
            and params[:1] == ["self"]
            and func[0] in ("meth", "desc", "ref")
        ) else params
        argmap: dict[str, Units] = {}
        for pname, units in zip(rest, arg_units):
            argmap[pname] = units
        for kw, units in kw_units.items():
            if kw in params:
                argmap[kw] = units

        # Parameters that reach a simulated sink inside the callee.
        for pname, expected in sorted(summary.param_sinks.items()):
            units = argmap.get(pname)
            if units:
                for unit in sorted(expected):
                    self._check_sink_value(
                        units, unit, callee["name"], line, col, via=True
                    )

        out: set = set()
        for unit in summary.ret:
            if isinstance(unit, str):
                out.add(unit)
            else:  # ("param", name) pass-through
                out |= argmap.get(unit[1], _EMPTY)
        return out

    # -- checks --------------------------------------------------------

    def _check_mix(
        self,
        left: Units,
        right: Units,
        op_name: str,
        line: int,
        col: int,
        comparison: bool = False,
    ) -> None:
        hit = _conflict(left, right)
        if hit is None:
            return
        ua, ub = hit
        verb = "compares" if comparison else "mixes"
        self._report(
            "PIC601",
            line,
            col,
            f"{verb} {UNIT_NOUN[ua]} with {UNIT_NOUN[ub]}: these live on "
            "different clocks/scales, so the result is meaningless. "
            "Convert explicitly (or keep host measurements out of "
            "simulated quantities).",
        )

    def _check_sinks(
        self,
        func: list,
        tail: str | None,
        arg_units: list[Units],
        kw_units: dict[str, Units],
        line: int,
        col: int,
    ) -> None:
        if func[0] != "meth" or tail not in SINKS:
            return
        index, kw_name, expected = SINKS[tail]
        units: Units | None = None
        if len(arg_units) > index:
            units = arg_units[index]
        elif kw_name in kw_units:
            units = kw_units[kw_name]
        if units:
            self._check_sink_value(units, expected, tail, line, col)
        # Record the sink for parameter-polymorphic callers.
        for marker in _concrete_params(units):
            done = self.summary.param_sinks.get(marker, frozenset())
            self.summary.param_sinks[marker] = done | {expected}

    def _check_sink_value(
        self,
        units: Units,
        expected: str,
        sink: str,
        line: int,
        col: int,
        via: bool = False,
    ) -> None:
        # Only conflicting units are this rule's business: ``len()``
        # pieces flowing into a byte sink belong to PIC202.
        wrong = sorted(
            u for u in _concrete(units) if frozenset({u, expected}) in CONFLICTS
        )
        if not wrong:
            return
        # Propagate param sinks transitively.
        for marker in _concrete_params(units):
            done = self.summary.param_sinks.get(marker, frozenset())
            self.summary.param_sinks[marker] = done | {expected}
        through = f"via {sink}()" if via else f"passed to {sink}()"
        self._report(
            "PIC602",
            line,
            col,
            f"value carrying {UNIT_NOUN[wrong[0]]} {through}, which expects "
            f"{UNIT_NOUN[expected]}; host measurements must never enter "
            "simulated metrics (and vice versa) — recompute the quantity "
            "from simulated sources.",
        )

    def _report(self, rule: str, line: int, col: int, message: str) -> None:
        if not self.report:
            return
        key = (rule, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append((rule, self.fid, line, col, message))

    # -- helpers -------------------------------------------------------

    def _sim_receiver(self, base: Any) -> bool:
        """Is ``base`` a simulation/cluster-ish receiver (``sim.now``)?"""
        node = base
        while isinstance(node, list) and node and node[0] in ("elem", "slice"):
            node = node[1]
        if not isinstance(node, list) or not node:
            return False
        if node[0] == "name":
            return node[1] in _SIM_RECEIVERS
        if node[0] == "attr":
            return node[2] in SUBSTRATE_NAMES
        if node[0] == "call":
            return False
        return False


def _concrete_params(units: Units | None) -> list[str]:
    if not units:
        return []
    return sorted(u[1] for u in units if isinstance(u, tuple) and u[0] == "param")
