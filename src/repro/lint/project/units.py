"""Quantity-unit taint analysis (PIC202, PIC601–PIC602).

The simulator's credibility rests on never mixing *simulated*
quantities with *host* quantities.  This pass seeds unit qualifiers at
known sources, propagates them through binds, arithmetic, containers
and project-function returns, and flags three violations:

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
* **PIC202 — a record count as a byte count**: a value whose only
  concrete unit is ``count`` reaches a simulated-bytes argument — the
  ``sim_b`` entries of :data:`SINKS`, any ``nbytes=``/``size_bytes=``
  keyword, ``Flow(size=...)``.  ``len()`` counts records or
  characters and ``sys.getsizeof`` CPython headers, never wire bytes.

Sources
-------
=============== =======================================================
unit            seeded from
=============== =======================================================
``wall_s``      every host-clock read PIC001 reports
                (``determinism.WALL_CLOCK_CALLS``: ``time.time/
                perf_counter/monotonic/process_time`` and ``_ns``
                variants, ``timeit.default_timer``,
                ``datetime.datetime.now/utcnow/today``,
                ``datetime.date.today``)
``sim_s``       ``.now``/``peek_time()`` on a simulation/cluster
                receiver, ``transfer_time(...)``
``sim_b``       ``sizeof_records/sizeof_record/sizeof_value``,
                ``nbytes_wire`` calls and attributes, ``.nbytes``
``count``       ``len(...)``, ``sys.getsizeof(...)``
=============== =======================================================

``count`` + ``sim_b`` is deliberately *not* a conflict (byte totals
are legitimately built from ``len(encoded)``): only a value that is a
count and nothing else is a wrong byte count.  Interprocedurally, each
function's summary carries the units its return value may hold (with
parameter-polymorphic pass-through) and which parameters flow into
simulated sinks, iterated to a fixpoint over the call graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.graph import SUBSTRATE_NAMES
from repro.lint.project.ir import callee_dotted, strip_subscripts
from repro.lint.project.walker import Walker, call_tail
from repro.lint.rules.determinism import WALL_CLOCK_CALLS

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
#: Dotted calls returning a size that is no wire size: ``count`` too.
_COUNT_DOTTED = frozenset({"sys.getsizeof"})

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
    "transfer_time": (2, "nbytes", SIM_B),
}
#: Keywords that are simulated bytes on any call, and the constructors
#: whose ``size`` keyword is.
_BYTE_KWARGS = frozenset({"nbytes", "size_bytes"})
_BYTE_SIZE_CTORS = frozenset({"Flow"})

Units = frozenset  # of unit tags and ("param", name) markers

_EMPTY: Units = frozenset()


class UnitSummary:
    """One function's unit facts: the units its return may carry
    (``ret``) and the sink units each parameter may reach
    (``param_sinks``)."""

    def __init__(self) -> None:
        self.ret: Units = _EMPTY
        self.param_sinks: dict[str, frozenset[str]] = {}

    def key(self) -> tuple:
        return (
            tuple(sorted(map(str, self.ret))),
            tuple(sorted((p, tuple(sorted(s))) for p, s in self.param_sinks.items())),
        )


class UnitAnalysis:
    """Converged unit summaries plus the findings they imply."""

    MAX_ROUNDS = 6

    def __init__(self, project: "ProjectAnalysis") -> None:
        self.project = project
        self.graph = project.graph
        self.callsites = project.callsites
        self.fix = Fixpoint()
        #: fid -> units its return may carry, and the simulated-sink
        #: units each parameter (transitively) flows into.
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


class _UnitWalker(Walker):
    """The unit domain: seeds, arithmetic checks and simulated sinks,
    with ``("param", name)`` markers for parameter polymorphism over a
    :class:`UnitSummary`, which :meth:`through_callees` replays at a
    resolved call site."""

    bottom: Units = _EMPTY

    def __init__(self, an: UnitAnalysis, fid: str) -> None:
        super().__init__(an, fid)
        self.summary = UnitSummary()
        for p in self.fn["params"]:
            self.env[p] = frozenset({("param", p)})

    # -- hooks ---------------------------------------------------------

    def ret(self, value: Units, line: int, col: int) -> None:
        self.summary.ret = self.summary.ret | value

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
        if dotted in WALL_CLOCK_CALLS:
            return frozenset({WALL_S})
        if tail in _SIM_B_CALLS or (
            dotted is not None and dotted.rpartition(".")[2] in _SIM_B_CALLS
        ):
            return frozenset({SIM_B})
        if func[0] == "meth" and tail in _SIM_S_METHODS:
            return frozenset({SIM_S})
        if (func[0] == "ref" and tail in _COUNT_CALLS) or dotted in _COUNT_DOTTED:
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

    # -- parameter polymorphism ----------------------------------------

    def reach(self, value: Units, sinks: Iterable[str]) -> None:
        """Every parameter ``value`` may stand for reaches ``sinks``."""
        for p in sorted(m[1] for m in value if isinstance(m, tuple)):  # pic: noqa: PIC003 (sorted)
            done = self.summary.param_sinks.get(p, frozenset())
            self.summary.param_sinks[p] = done | frozenset(sinks)

    def through_callees(
        self, desc: list, args: list[Units], kwargs: dict[str, Units]
    ) -> Units | None:
        """What the project functions this call site resolves to may
        return for these arguments, after each argument a callee
        forwards to a sink has been checked against it (and has
        :meth:`reach`ed it, for our own parameters).  None when the site
        resolves to no project function."""
        _, func, _args, _kwargs, line, col = desc
        callees = self.an.callsites.get((self.fid, line, col))
        if not callees:
            return None
        out: set = set()
        for fid in callees:
            callee = self.graph.function_ir.get(fid)
            summary = self.an.fix.read(fid)
            if callee is None or summary is None:
                continue
            bound = self.bind_args(callee, func, args, kwargs)
            for pname, sinks in sorted(summary.param_sinks.items()):
                if bound.get(pname):
                    for unit in sorted(sinks):
                        self._check_sink_value(
                            bound[pname], unit, callee["name"], None, line, col, via=True
                        )
            for marker in summary.ret:
                if isinstance(marker, str):
                    out.add(marker)
                else:
                    out |= bound.get(marker[1], self.bottom)
        return frozenset(out)

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
        # keyword (None: positional) -> (units passed, unit expected)
        passed: dict[str | None, tuple[Units, str]] = {}
        if func[0] == "meth" and tail in SINKS:
            index, kw_name, expected = SINKS[tail]
            if len(args) > index:
                passed[None] = (args[index], expected)
            elif kw_name in kwargs:
                passed[kw_name] = (kwargs[kw_name], expected)
        byte_kwargs = _BYTE_KWARGS | ({"size"} if tail in _BYTE_SIZE_CTORS else set())
        for kw in sorted(byte_kwargs & kwargs.keys()):
            passed[kw] = (kwargs[kw], SIM_B)
        for kw, (units, expected) in passed.items():
            self._check_sink_value(units, expected, str(tail), kw, line, col)

    def _check_sink_value(
        self,
        units: Units,
        expected: str,
        sink: str,
        kw: str | None,
        line: int,
        col: int,
        via: bool = False,
    ) -> None:
        # Record the sink for parameter-polymorphic callers, whatever
        # this value carries: a helper that only forwards is a sink too.
        self.reach(units, {expected})
        concrete = _concrete(units)
        wrong = sorted(u for u in concrete if frozenset({u, expected}) in CONFLICTS)
        counted = expected == SIM_B and concrete == {COUNT}
        if not (wrong or counted):
            return
        if counted:
            where = f"{sink}({kw}=...)" if kw else f"byte argument of {sink}()"
            self.report(
                "PIC202",
                line,
                col,
                f"raw len()/getsizeof used for the {where}: that counts records or "
                "characters, not serialized bytes. Use repro.util.sizing."
                "sizeof_records()/sizeof_value() or the cached .nbytes.",
            )
            return
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
