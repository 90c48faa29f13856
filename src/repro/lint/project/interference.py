"""Concurrency-interference analysis (PIC701–PIC704).

PR 8 made the simulator genuinely concurrent: many jobs interleave
through one event queue and share the runner's waiter queues, the slot
schedulers, the flow network and the node-memory cache.  Correctness
now rests on *schedule-order independence* — no observable result may
depend on which of two same-timestamp events happens to run first.
The ``PIC_SANITIZE`` schedule sanitizer checks that dynamically; this
pass checks the same invariant statically, over the converged
call-graph facts of :class:`~repro.lint.project.analysis.ProjectAnalysis`:

* **PIC701 — cross-job state write**: event-handler-reachable code
  mutates job-scoped state (a ``_JobState``/``JobHandle``-shaped class,
  or any class carrying an ``app_id``/``job_index``) through a receiver
  that is not its own instance.  A handler scheduled by job A writing
  job B's buckets is the archetypal interference bug.
* **PIC702 — order-dependent shared write**: two distinct handler
  seeds reach overlapping write/read effect sets on one shared
  abstract location ``(class, attr)`` with no canonical tiebreak — an
  unkeyed whole-attribute store (or an order-sensitive mutator call
  like ``append``) outside the owning class.  Keyed element writes are
  partitioned, augmented numeric updates commute, and constant stores
  are idempotent, so those stay silent; so do writes inside the owning
  class, whose serialization is that class's own contract (PIC703's
  business).  Co-schedulability is approximated as "any two handler
  seeds": the event queue gives no static phase separation.
* **PIC703 — aggregate mutated outside its serialization point**:
  runner/scheduler shared aggregates (per-node waiter queues, slot and
  capacity maps, the ``NodeMemoryCache`` tables, the flow network's
  dirty set) mutated from handler-reachable code outside the owning
  class/module.  The sanctioned path is the owner's request/release/
  acquire API, whose matching runs at a
  :meth:`~repro.cluster.events.Simulation.schedule_serialized` point.
* **PIC704 — unordered source reaches an order-sensitive sink**:
  ``set``/``frozenset`` construction or an ``id()``-keyed container
  flowing — interprocedurally, through returns and parameters — into
  ``schedule_batch`` callbacks, flow/submission batches, or a waiter
  queue.  Extends the per-file PIC003 to whole-program; ``sorted()``
  sanitizes.

Set *literals* are lowered to plain ``make`` descriptors by the IR, so
PIC704's sources are constructor calls and comprehensions over them —
the per-file PIC003 still owns the literal-iteration case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.lint.project.analysis import MUTATOR_METHODS
from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.ir import base_tail_name, root_name, strip_subscripts
from repro.lint.project.walker import TaintWalker, call_tail

if TYPE_CHECKING:
    from repro.lint.project.analysis import ProjectAnalysis

#: Class-name shapes that denote per-job state even without an
#: ``app_id`` attribute (fixtures and ports included).
JOB_STATE_TAILS = frozenset({"_JobState", "JobState", "JobHandle"})
#: Attribute/parameter names that mark a class as job-scoped.
JOB_KEY_NAMES = frozenset({"app_id", "job_index"})

#: Shared-aggregate attribute leaves arbitrated at serialization
#: points: waiter queues, slot/capacity maps, cache tables, the flow
#: dirty set.  Mutating one from outside the owning class bypasses the
#: canonical matching pass (PIC703).
AGGREGATE_LEAVES = frozenset(
    {
        "_reduce_waiters",
        "_reduce_capacity",
        "_outstanding",
        "_held",
        "_capacity",
        "_queue",
        "_available",
        "_entries",
        "_used",
        "_dirty_links",
    }
)
#: Receiver-name fallback when no type is known: ``runner._queue``
#: reads as an aggregate owner even untyped.
AGGREGATE_OWNER_NAMES = frozenset(
    {"runner", "scheduler", "map_scheduler", "sched", "rm", "cache"}
)

#: Order-sensitive sinks: method tail -> positional index of the
#: iterable whose order is executed/submitted.
ORDER_SINKS: dict[str, int] = {
    "schedule_batch": 1,
    "transfer_batch": 0,
    "start_flows": 0,
    "submit_many": 0,
    "run_many": 0,
}
#: Waiter-queue leaves whose *insertion order* is a scheduling order.
WAITER_LEAVES = frozenset({"_reduce_waiters", "_waiters", "_queue"})

#: Calls whose result forgets iteration order (PIC704 sanitizers).
_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})
#: Calls preserving their argument's (non)order.
_ORDER_PROPAGATORS = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate", "filter", "map"}
)
_UNORDERED_CTORS = frozenset({"set", "frozenset"})

_U = "U"
Taint = frozenset  # of _U and ("param", name) markers
_EMPTY: Taint = frozenset()

#: PIC702 write kinds that have no canonical tiebreak.
_RACY_KINDS = frozenset({"store", "mutcall"})


class FnEffects:
    """One function's interference-relevant facts."""

    def __init__(self) -> None:
        #: [(loc, kind, line, col)] — loc is (owner_class_fq, leaf);
        #: kind in {"store", "keyed", "const", "aug", "mutcall"}.
        self.writes: list[tuple[tuple[str, str], str, int, int]] = []
        #: private attribute loads by location.
        self.reads: set[tuple[str, str]] = set()
        #: cross-job write candidates: (line, col, receiver class).
        self.cross_job: list[tuple[int, int, str]] = []
        #: aggregate-leaf write candidates: (line, col, owner, leaf).
        self.aggregate: list[tuple[int, int, str | None, str]] = []
        #: PIC704 return/parameter order-taint summary.
        self.ret_taint: Taint = _EMPTY
        self.param_sinks: dict[str, frozenset[str]] = {}

    def key(self) -> tuple:
        return (
            tuple(sorted(map(str, self.ret_taint))),
            tuple(
                sorted(
                    (p, tuple(sorted(s))) for p, s in self.param_sinks.items()
                )
            ),
        )


class InterferenceAnalysis:
    """Converged interference facts plus the findings they imply."""

    MAX_ROUNDS = 6

    def __init__(self, project: "ProjectAnalysis") -> None:
        self.project = project
        self.graph = project.graph
        self.callsites = project.callsites
        self.job_classes = self._find_job_classes()
        self.fix = Fixpoint()
        self.effects: dict[str, FnEffects] = self.fix.summaries
        #: PIC704 sink hits first, as the walks found them.
        self.findings: list[tuple[str, str, int, int, str]] = self.fix.solve(
            sorted(self.graph.function_ir),
            lambda fid: _InterferenceWalker(self, fid).run(),
            self.MAX_ROUNDS,
        )
        self._collect_local(self.project.handler_reachable())
        self._collect_shared_conflicts()

    # -- job-scope detection -------------------------------------------

    def _find_job_classes(self) -> frozenset:
        """Classes holding per-job state: name shape, job-key attr or
        ``__init__`` parameter, plus every subclass of one."""
        out: set[str] = set()
        for cfq in sorted(self.graph.classes):
            _modkey, cname, info = self.graph.classes[cfq]
            tail = cname.rpartition(".")[2]
            if tail in JOB_STATE_TAILS:
                out.add(cfq)
                continue
            if JOB_KEY_NAMES & set(info["attr_types"]):
                out.add(cfq)
                continue
            init_fn = self._own_init(cfq)
            if init_fn is not None and (
                JOB_KEY_NAMES & set(init_fn["params"])
                or _init_stores(
                    init_fn["ops"],
                    lambda op: op[3] == "store" and _self_attr(op[1]) in JOB_KEY_NAMES,
                )
            ):
                out.add(cfq)
        for cfq in sorted(out):
            out |= self.graph.descendants(cfq)
        return frozenset(out)

    def resolve_type(self, raw: str | None, modkey: str | None) -> str | None:
        """Resolve an annotation string seen in ``modkey`` to a class
        fq-name.  Unresolvable class-looking names (imports outside the
        linted set) are kept raw: they still make stable location keys.
        """
        if not raw:
            return None
        resolved = self.graph.resolve_class(raw)
        if resolved is None and modkey:
            resolved = self.graph.resolve_class(f"{modkey}.{raw}")
        if resolved is not None:
            return resolved
        tail = raw.rpartition(".")[2]
        return raw if tail[:1].isupper() else None

    def attr_type(self, cfq: str, attr: str) -> str | None:
        """Like ``graph.attr_type`` but resolving through the declaring
        class's own module aliases."""
        for cls in self.graph.ancestors(cfq):
            entry = self.graph.classes[cls]
            raw = entry[2]["attr_types"].get(attr)
            if raw is not None:
                return self.resolve_type(raw, entry[0])
        return None

    def _same_family(self, a: str | None, b: str | None) -> bool:
        """Do classes ``a`` and ``b`` share an inheritance chain?"""
        if a is None or b is None:
            return False
        return b in self.graph.ancestors(a) or a in self.graph.ancestors(b)

    def _attr_owner(self, cfq: str, leaf: str) -> str:
        """Nearest ancestor declaring ``leaf``, for location keys."""
        return self._declared_by(cfq, leaf) or cfq

    def _declared_by(self, cfq: str, leaf: str) -> str | None:
        """The class in ``cfq``'s MRO that declares ``leaf`` (annotation
        or ``__init__`` store), or None when nothing does."""
        for cls in self.graph.ancestors(cfq):
            if leaf in self.graph.classes[cls][2]["attr_types"]:
                return cls
            init_fn = self._own_init(cls)
            if init_fn is not None and _init_stores(
                init_fn["ops"],
                lambda op: _self_attr(strip_subscripts(op[1])) == leaf,
            ):
                return cls
        return None

    def _own_init(self, cfq: str) -> dict | None:
        """The IR of the ``__init__`` that ``cfq`` itself defines."""
        fid = self.graph.own_method(cfq, "__init__")
        return self.graph.function_ir[fid] if fid else None

    # -- reporting ------------------------------------------------------

    def _collect_local(self, reachable: set) -> None:
        """PIC701/PIC703: per-function candidates in handler-reachable
        code (the effects recording them read no callee summary, so any
        evaluation's are the converged ones)."""
        for fid in sorted(self.effects):
            if fid not in reachable:
                continue
            effects = self.effects[fid]
            fn = self.graph.function_ir[fid]
            for line, col, recv in effects.cross_job:
                self.findings.append(
                    (
                        "PIC701",
                        fid,
                        line,
                        col,
                        f"event-handler-reachable code ({fn['qual']}) writes "
                        f"job-scoped state of another job's "
                        f"{recv.rpartition('.')[2]} instance; a handler may "
                        "only mutate the job that scheduled it — route "
                        "cross-job effects through the runner.",
                    )
                )
            for line, col, owner, leaf in effects.aggregate:
                noun = (
                    f"{owner.rpartition('.')[2]}.{leaf}"
                    if owner is not None
                    else leaf
                )
                self.findings.append(
                    (
                        "PIC703",
                        fid,
                        line,
                        col,
                        f"shared scheduling aggregate {noun} mutated from an "
                        "app callback; grants and releases must go through "
                        "the owner's serialization-point API "
                        "(request/release/acquire_reduce), which matches "
                        "canonically once per timestamp.",
                    )
                )

    def _collect_shared_conflicts(self) -> None:
        """PIC702: overlapping effect sets across handler seeds."""
        seeds = sorted(self.project.handler_seeds())
        writers: dict[tuple[str, str], dict[tuple, set]] = {}
        readers: dict[tuple[str, str], set] = {}
        for seed in seeds:
            for fid in sorted(self.project.reachable_from([seed])):
                effects = self.effects.get(fid)
                if effects is None:
                    continue
                for loc, kind, line, col in effects.writes:
                    if kind not in _RACY_KINDS:
                        continue
                    site = (fid, line, col, loc)
                    writers.setdefault(loc, {}).setdefault(site, set()).add(
                        seed
                    )
                for loc in effects.reads:
                    readers.setdefault(loc, set()).add(seed)
        for loc in sorted(writers):
            sites = writers[loc]
            write_seeds: set = set()
            for seeds_at in sites.values():
                write_seeds |= seeds_at
            read_seeds = readers.get(loc, set()) - write_seeds
            if len(write_seeds) < 2 and not (write_seeds and read_seeds):
                continue
            owner, leaf = loc
            all_seeds = sorted(write_seeds | read_seeds)
            names = sorted({self._fn_name(s) for s in all_seeds})
            sample = " and ".join(names[:2])
            verb = "written" if len(write_seeds) >= 2 else "written and read"
            for fid, line, col, _loc in sorted(sites):
                self.findings.append(
                    (
                        "PIC702",
                        fid,
                        line,
                        col,
                        f"{owner.rpartition('.')[2]}.{leaf} is mutated here "
                        f"without a canonical tiebreak and is {verb} by "
                        f"{len(all_seeds)} co-schedulable handler paths "
                        f"(e.g. {sample}); same-timestamp handlers may "
                        "interleave either way, so the result is "
                        "schedule-dependent — key the write, make it "
                        "commutative, or arbitrate at a serialization "
                        "point.",
                    )
                )

    def _fn_name(self, fid: str) -> str:
        fn = self.graph.function_ir.get(fid)
        return fn["qual"] if fn is not None else fid


class _InterferenceWalker(TaintWalker):
    """Order taint (PIC704) plus write/read effect recording."""

    RET = "ret_taint"

    def __init__(self, an: InterferenceAnalysis, fid: str) -> None:
        super().__init__(an, fid, FnEffects())
        #: locals freshly constructed here — their writes are private.
        self.fresh: set[str] = set()
        #: modules that define a class own its aggregates (helper
        #: functions are the implementation, not intruders).
        self._module_classes = {
            f"{self.modkey}.{c}" for c in self.graph.modules[self.modkey]["classes"]
        }
        #: ``tenv``: params, self, tracked ctor binds.
        for p in self.fn["params"]:
            cfq = an.resolve_type(self.fn["param_types"].get(p), self.modkey)
            if cfq:
                self.tenv[p] = cfq
        if self.cls is not None:
            self.tenv.setdefault("self", self.cls)

    # -- op hooks ------------------------------------------------------

    def bind(self, name: str, desc: list, value: Taint) -> None:
        self.env[name] = value
        cfq = self._ctor_class(desc)
        if cfq is not None:
            self.tenv[name] = cfq
            self.fresh.add(name)
        else:
            self._forget_type(name)

    def kill(self, name: str) -> None:
        self.env.pop(name, None)
        self._forget_type(name)

    def _forget_type(self, name: str) -> None:
        self.tenv.pop(name, None)
        self.fresh.discard(name)

    # -- writes ---------------------------------------------------------

    def mutate(
        self, target: list, value: list | None, stored: Taint, how: str, line: int, col: int
    ) -> None:
        if how.startswith("aug:"):
            kind = "aug"
        elif how == "store" and value is not None and value[0] == "const":
            kind = "const"
        else:
            kind = "store"
        written = self._write(target, kind, stored, line, col)
        if not written and target[0] == "name":
            self.env[target[1]] = self.env.get(target[1], _EMPTY) | stored

    def _write(self, target: list, kind: str, taint: Taint, line: int, col: int) -> bool:
        """Record a write of ``kind`` through an attribute chain (False:
        ``target`` is none); under a subscript all but ``aug`` are keyed."""
        node = strip_subscripts(target)
        if node[0] != "attr":
            return False
        if node is not target and kind != "aug":
            kind = "keyed"
        leaf, base = node[2], node[1]
        recv_type = self.type_of(base)
        own = self._is_own_write(recv_type, root_name(target))
        aggregate = leaf in AGGREGATE_LEAVES and not own
        if recv_type is not None and not own:
            owner = self.an._attr_owner(recv_type, leaf)
            # The module defining a class owns its instances' state the
            # way it owns its aggregates: FlowNetwork advancing a Flow's
            # row is the flow engine's internal serialization, not
            # cross-handler interference — PIC702 tracks only locations
            # shared *across* module boundaries.
            if owner not in self._module_classes:
                self.summary.writes.append(((owner, leaf), kind, line, col))
                if aggregate and not self.an._same_family(recv_type, self.cls):
                    self.summary.aggregate.append((line, col, owner, leaf))
            if recv_type in self.an.job_classes:
                self.summary.cross_job.append((line, col, recv_type))
        elif aggregate and recv_type is None:
            # Untyped receiver: name-based fallback (``runner._queue``),
            # unless the enclosing class declares the leaf itself.
            named = base_tail_name(base) in AGGREGATE_OWNER_NAMES
            if named and (
                self.cls is None or self.an._declared_by(self.cls, leaf) is None
            ):
                self.summary.aggregate.append((line, col, None, leaf))
        if (leaf in WAITER_LEAVES or "waiters" in leaf) and _U in taint:
            self.report(
                "PIC704",
                line,
                col,
                f"value with nondeterministic iteration order stored into "
                f"waiter queue {leaf}; waiter order is a scheduling order — "
                "sort the source or use an ordered container.",
            )
        return True

    def _is_own_write(self, recv_type: str | None, root: str | None) -> bool:
        """Writes to our own instance or a fresh local are private."""
        if root is not None and root in self.fresh:
            return True
        if root == "self" and self.an._same_family(recv_type, self.cls):
            return True
        return False

    # -- static types ----------------------------------------------------

    def type_of(self, desc: list) -> str | None:
        kind = desc[0]
        if kind == "name":
            return self.tenv.get(desc[1])
        if kind == "attr":
            base_t = self.type_of(desc[1])
            if base_t is None:
                return None
            return self.an.attr_type(base_t, desc[2])
        if kind == "call":
            return self._ctor_class(desc)
        if kind == "walrus":
            return self.type_of(desc[2])
        return None

    def _ctor_class(self, desc: list) -> str | None:
        if desc[0] != "call":
            return None
        func = desc[1]
        dotted: str | None = None
        if func[0] == "ref":
            dotted = func[1]
        elif func[0] == "meth":
            # Module-qualified constructor (pkg.mod.Class(...)).
            parts = [func[2]]
            node = func[1]
            while node[0] == "attr":
                parts.append(node[2])
                node = node[1]
            if node[0] == "name":
                parts.append(node[1])
                dotted = ".".join(reversed(parts))
        if dotted is None:
            return None
        return self.graph.resolve_class(
            dotted
        ) or self.graph.resolve_class(f"{self.modkey}.{dotted}")

    # -- descriptor hooks (order taint + reads) --------------------------

    def attr(self, desc: list, base: Taint) -> Taint:
        recv_type = self.type_of(desc[1])
        if recv_type is not None and not self._is_own_write(
            recv_type, root_name(desc)
        ):
            owner = self.an._attr_owner(recv_type, desc[2])
            if owner not in self._module_classes:
                self.summary.reads.add((owner, desc[2]))
        return _EMPTY

    def sub(self, kind: str, base: Taint) -> Taint:
        return _EMPTY

    def item(self, desc: list, value: Taint) -> Taint:
        return value | frozenset({_U}) if _is_id_call(desc) else value

    def comp_bind(self, names: list[str], value: Taint) -> Taint:
        super().comp_bind(names, _EMPTY)
        return value

    def call(self, desc: list, args: list[Taint], kwargs: dict[str, Taint]) -> Taint:
        _, func, _args, _kwargs, line, col = desc
        tail = call_tail(func)
        if func[0] == "meth":
            self.eval(func[1])
            if tail in MUTATOR_METHODS:  # ``x.attr.append(...)`` writes x.attr
                self._write(func[1], "mutcall", _EMPTY.union(*args), line, col)
        elif func[0] == "desc":
            self.eval(func[1])

        self._check_order_sinks(tail, args, kwargs, line, col)

        if func[0] == "ref" and tail in _UNORDERED_CTORS:
            return frozenset({_U})
        if func[0] == "ref" and tail in _SANITIZERS:
            return _EMPTY

        returned = self.through_callees(desc, args, kwargs)
        if returned is not None:
            return returned

        if func[0] == "ref" and tail in _ORDER_PROPAGATORS and args:
            taint = _EMPTY
            for t in args:
                taint = taint | t
            return taint
        if func[0] == "meth" and tail in ("items", "keys", "values", "copy"):
            return self.eval(func[1])
        return _EMPTY

    def _check_order_sinks(
        self,
        tail: str | None,
        args: list[Taint],
        kwargs: dict[str, Taint],
        line: int,
        col: int,
    ) -> None:
        if tail not in ORDER_SINKS:
            return
        index = ORDER_SINKS[tail]
        taint: Taint = _EMPTY
        if len(args) > index:
            taint = args[index]
        elif tail == "schedule_batch" and "callbacks" in kwargs:
            taint = kwargs["callbacks"]
        if _U in taint:
            self.report(
                "PIC704",
                line,
                col,
                f"iterable with nondeterministic iteration order (built "
                f"from a set or id()-keyed container) passed to {tail}(); "
                "its order becomes the execution/submission order — "
                "sorted(...) it first.",
            )
        self.reach(taint, {tail})

    def passed_to_sinks(
        self, callee: dict, value: Taint, sinks: frozenset, line: int, col: int
    ) -> None:
        if _U in value:
            self.report(
                "PIC704",
                line,
                col,
                f"unordered iterable flows through {callee['qual']}() "
                f"into an order-sensitive sink "
                f"({', '.join(sorted(sinks))}); its iteration order "
                "becomes a schedule — sorted(...) it first.",
            )
        self.reach(value, sinks)


def _self_attr(target: list) -> str | None:
    """``x`` when ``target`` is exactly ``self.x``."""
    if target[0] == "attr" and target[1] == ["name", "self"]:
        return target[2]
    return None


def _init_stores(ops: Iterable[list], matches: Callable[[list], bool]) -> bool:
    """Does an ``__init__`` body — ``if`` arms included — hold a
    ``mutate`` op that ``matches``?"""
    for op in ops:
        if op[0] == "mutate":
            if matches(op):
                return True
        elif op[0] == "if":
            if _init_stores(op[2], matches) or _init_stores(op[3], matches):
                return True
    return False


def _is_id_call(desc: list) -> bool:
    return desc[0] == "call" and desc[1][0] == "ref" and desc[1][1] == "id"
