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

from typing import TYPE_CHECKING

from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.graph import SUBSTRATE_NAMES
from repro.lint.project.ir import callee_dotted, strip_subscripts
from repro.lint.project.walker import TaintWalker, call_tail

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
    "move": (2, "nbytes", SIM_B),
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
        self.findings: list[tuple[str, str, int, int, str]] = self.fix.solve(
            sorted(self.graph.function_ir),
            lambda fid: _UnitWalker(self, fid).run(),
            self.MAX_ROUNDS,
        )


def _concrete(units: Units) -> frozenset:
    return frozenset(u for u in units if isinstance(u, str))


def _conflict(a: Units, b: Units) -> tuple[str, str] | None:
    for ua in sorted(_concrete(a)):
        for ub in sorted(_concrete(b)):
            if frozenset({ua, ub}) in CONFLICTS:
                return ua, ub
    return None


class _UnitWalker(TaintWalker):
    """The unit domain: seeds, arithmetic checks and simulated sinks."""

    def __init__(self, an: UnitAnalysis, fid: str) -> None:
        super().__init__(an, fid, UnitSummary())

    # -- hooks ---------------------------------------------------------

    def mutate(
        self, target: list, value: list | None, stored: Units, how: str, line: int, col: int
    ) -> None:
        target_units = self.eval(target)
        if how.startswith("aug:") and how[4:] in _ADDITIVE_OPS:
            self._check_mix(target_units, stored, how[4:], line, col)
        if target[0] == "name":
            self.env[target[1]] = self.env.get(target[1], _EMPTY) | stored

    def attr(self, desc: list, base: Units) -> Units:
        attr = desc[2]
        if attr in _SIM_B_ATTRS:
            return frozenset({SIM_B})
        if attr in _SIM_CLOCK_ATTRS and self._sim_receiver(desc[1]):
            return frozenset({SIM_S})
        if attr in ("sim_seconds", "sim_time"):
            return frozenset({SIM_S})
        return _EMPTY

    # ``sub`` and ``item`` keep the walker's defaults: elements of a
    # tainted container carry the container's units.

    def bin(self, desc: list, left: Units, right: Units) -> Units:
        _, op_name, _left, _right, line, col = desc
        if op_name in _ADDITIVE_OPS:
            self._check_mix(left, right, op_name, line, col)
            return left | right
        if op_name in ("Mult", "Div", "FloorDiv", "Mod", "Pow", "MatMult"):
            # Rates/scalings: result keeps no committed unit.
            return _EMPTY
        return left | right

    def cmp(self, desc: list, values: list[Units]) -> Units:
        _, op_names, _items, line, col = desc
        for i, op_name in enumerate(op_names):
            if op_name in _ORDERING_OPS and i + 1 < len(values):
                self._check_mix(
                    values[i], values[i + 1], op_name, line, col, comparison=True
                )
        return _EMPTY

    def call(self, desc: list, args: list[Units], kwargs: dict[str, Units]) -> Units:
        _, func, _args, _kwargs, line, col = desc
        tail = call_tail(func)
        dotted = callee_dotted(func, self.aliases)

        self._check_sinks(func, tail, args, kwargs, line, col)

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
        returned = self.through_callees(desc, args, kwargs)
        if returned is not None:
            return returned

        # Unit-preserving builtins.
        if func[0] == "ref" and tail in _PROPAGATORS and args:
            units = args[0]
            if tail in ("min", "max"):
                for u in args[1:]:
                    units = units | u
            return units
        return _EMPTY

    def passed_to_sinks(
        self, callee: dict, value: Units, sinks: frozenset, line: int, col: int
    ) -> None:
        for unit in sorted(sinks):
            self._check_sink_value(value, unit, callee["name"], line, col, via=True)

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
        self.report(
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
        args: list[Units],
        kwargs: dict[str, Units],
        line: int,
        col: int,
    ) -> None:
        if func[0] != "meth" or tail not in SINKS:
            return
        index, kw_name, expected = SINKS[tail]
        units = args[index] if len(args) > index else kwargs.get(kw_name, _EMPTY)
        if units:
            self._check_sink_value(units, expected, tail, line, col)
        # Record the sink for parameter-polymorphic callers.
        self.reach(units, {expected})

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
        self.reach(units, {expected})
        through = f"via {sink}()" if via else f"passed to {sink}()"
        self.report(
            "PIC602",
            line,
            col,
            f"value carrying {UNIT_NOUN[wrong[0]]} {through}, which expects "
            f"{UNIT_NOUN[expected]}; host measurements must never enter "
            "simulated metrics (and vice versa) — recompute the quantity "
            "from simulated sources.",
        )

    # -- helpers -------------------------------------------------------

    def _sim_receiver(self, base: list) -> bool:
        """Is ``base`` a simulation/cluster-ish receiver (``sim.now``)?"""
        node = strip_subscripts(base)
        if node[0] == "name":
            return node[1] in _SIM_RECEIVERS
        return node[0] == "attr" and node[2] in SUBSTRATE_NAMES
