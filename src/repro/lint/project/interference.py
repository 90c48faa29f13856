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

from typing import TYPE_CHECKING, Any, Iterable

from repro.lint.project.analysis import MUTATOR_METHODS
from repro.lint.project.fixpoint import Fixpoint

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
        self.findings: list[tuple[str, str, int, int, str]] = []
        self.fix.run(
            sorted(self.graph.function_ir),
            lambda fid: _InterferenceWalker(self, fid, report=False).run(),
            self.MAX_ROUNDS,
        )
        self._collect()

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
            init_fid = info["methods"].get("__init__")
            init_fn = (
                self.graph.function_ir.get(init_fid) if init_fid else None
            )
            if init_fn is not None:
                if JOB_KEY_NAMES & set(init_fn["params"]):
                    out.add(cfq)
                    continue
                if self._init_stores_job_key(init_fn["ops"]):
                    out.add(cfq)
        for cfq in sorted(out):
            out |= self.graph.descendants(cfq)
        return frozenset(out)

    def _init_stores_job_key(self, ops: Iterable[list]) -> bool:
        for op in ops:
            if op[0] == "mutate" and op[3] == "store":
                target = op[1]
                if (
                    target[0] == "attr"
                    and target[1] == ["name", "self"]
                    and target[2] in JOB_KEY_NAMES
                ):
                    return True
            elif op[0] == "if":
                if self._init_stores_job_key(op[2]) or self._init_stores_job_key(
                    op[3]
                ):
                    return True
        return False

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
            init_fid = self.graph.classes[cls][2]["methods"].get("__init__")
            init_fn = (
                self.graph.function_ir.get(init_fid) if init_fid else None
            )
            if init_fn is not None and self._init_stores_leaf(
                init_fn["ops"], leaf
            ):
                return cls
        return None

    def _init_stores_leaf(self, ops: Iterable[list], leaf: str) -> bool:
        for op in ops:
            if op[0] == "mutate":
                target = op[1]
                while target[0] in ("elem", "slice"):
                    target = target[1]
                if (
                    target[0] == "attr"
                    and target[1] == ["name", "self"]
                    and target[2] == leaf
                ):
                    return True
            elif op[0] == "if":
                if self._init_stores_leaf(op[2], leaf) or self._init_stores_leaf(
                    op[3], leaf
                ):
                    return True
        return False

    # -- reporting ------------------------------------------------------

    def _collect(self) -> None:
        reachable = self.project.handler_reachable()
        self._collect_local(reachable)
        self._collect_shared_conflicts()

    def _collect_local(self, reachable: set) -> None:
        """PIC701/PIC703/PIC704: per-function candidates, gated on
        handler reachability where the rule demands it."""
        for fid in sorted(self.graph.function_ir):
            walker = _InterferenceWalker(self, fid, report=True)
            effects = walker.run()
            self.findings.extend(walker.findings)  # PIC704 sink hits
            if fid not in reachable:
                continue
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
        closures: dict[str, frozenset] = {
            seed: self._closure(seed) for seed in seeds
        }
        writers: dict[tuple[str, str], dict[tuple, set]] = {}
        readers: dict[tuple[str, str], set] = {}
        for seed in seeds:
            for fid in sorted(closures[seed]):
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

    def _closure(self, seed: str) -> frozenset:
        reached = {seed}
        frontier = [seed]
        while frontier:
            fid = frontier.pop()
            summary = self.project.summaries.get(fid)
            if summary is None:
                continue
            for callee, _line, _col in summary.direct_calls:
                if callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
        return frozenset(reached)

    def _fn_name(self, fid: str) -> str:
        fn = self.graph.function_ir.get(fid)
        return fn["qual"] if fn is not None else fid


class _InterferenceWalker:
    """One pass over a function's ops (cf. units._UnitWalker)."""

    def __init__(
        self, an: InterferenceAnalysis, fid: str, report: bool
    ) -> None:
        self.an = an
        self.graph = an.graph
        self.fid = fid
        self.fn = self.graph.function_ir[fid]
        self.modkey = fid.split("::", 1)[0]
        self.report = report
        self.effects = FnEffects()
        self.findings: list[tuple[str, str, int, int, str]] = []
        self._seen: set[tuple] = set()
        #: order-taint environment (PIC704).
        self.env: dict[str, Taint] = {}
        #: name -> resolved class (params, self, tracked ctor binds).
        self.tenv: dict[str, str] = {}
        #: locals freshly constructed here — their writes are private.
        self.fresh: set[str] = set()
        self.cls = (
            f"{self.modkey}.{self.fn['class']}"
            if self.fn["class"] is not None
            else None
        )
        #: modules that define a class own its aggregates (helper
        #: functions are the implementation, not intruders).
        ir = self.graph.modules.get(self.modkey) or {"classes": {}}
        self._module_classes = {
            f"{self.modkey}.{c}" for c in ir.get("classes", {})
        }

    def run(self) -> FnEffects:
        for p in self.fn["params"]:
            self.env[p] = frozenset({("param", p)})
            cfq = self.an.resolve_type(
                self.fn["param_types"].get(p), self.modkey
            )
            if cfq:
                self.tenv[p] = cfq
        if self.cls is not None:
            self.tenv.setdefault("self", self.cls)
        self.walk(self.fn["ops"])
        return self.effects

    # -- ops -----------------------------------------------------------

    def walk(self, ops: Iterable[list]) -> None:
        for op in ops:
            self.op(op)

    def op(self, op: list) -> None:
        kind = op[0]
        if kind == "bind":
            _, name, desc, line = op
            self.env[name] = self.eval(desc, line)
            cfq = self._ctor_class(desc)
            if cfq is not None:
                self.tenv[name] = cfq
                self.fresh.add(name)
            else:
                self.tenv.pop(name, None)
                self.fresh.discard(name)
        elif kind == "unpack":
            _, names, desc, line = op
            self.eval(desc, line)
            for name in names:
                self.env[name] = _EMPTY
                self.tenv.pop(name, None)
                self.fresh.discard(name)
        elif kind == "eval":
            self.eval(op[1], op[2])
        elif kind == "mutate":
            _, target, value, how, line, col = op
            taint = self.eval(value, line) if value is not None else _EMPTY
            self.mutate(target, value, how, taint, line, col)
        elif kind == "ret":
            _, desc, line, _col = op
            self.effects.ret_taint = self.effects.ret_taint | self.eval(
                desc, line
            )
        elif kind == "raise":
            if op[1] is not None:
                self.eval(op[1], op[2])
        elif kind == "defl":
            self.env[op[1]] = _EMPTY
        elif kind == "kill":
            self.env.pop(op[1], None)
            self.tenv.pop(op[1], None)
            self.fresh.discard(op[1])
        elif kind == "if":
            self.eval(op[1], op[4])
            self.walk(op[2])
            self.walk(op[3])
        elif kind == "with":
            for ctx, var in op[1]:
                taint = self.eval(ctx, op[3])
                if var is not None:
                    self.env[var] = taint
            self.walk(op[2])
        elif kind == "try":
            self.walk(op[1])
            for _name, handler_ops in op[2]:
                self.walk(handler_ops)
            self.walk(op[3])
            self.walk(op[4])

    # -- writes ---------------------------------------------------------

    def mutate(
        self,
        target: list,
        value: Any,
        how: str,
        taint: Taint,
        line: int,
        col: int,
    ) -> None:
        site = self._write_site(target)
        if site is None:
            if target[0] == "name":
                self.env[target[1]] = self.env.get(target[1], _EMPTY) | taint
            return
        keyed, leaf, base, recv_type, root = site
        if how.startswith("aug:"):
            kind = "aug"
        elif keyed:
            kind = "keyed"
        elif how == "store" and _is_const(value):
            kind = "const"
        else:
            kind = "store"
        self._record_write(
            leaf, base, recv_type, root, kind, taint, line, col
        )

    def _record_write(
        self,
        leaf: str,
        base: list,
        recv_type: str | None,
        root: str | None,
        kind: str,
        taint: Taint,
        line: int,
        col: int,
    ) -> None:
        own = self._is_own_write(recv_type, root)
        if recv_type is not None and not own:
            owner = self.an._attr_owner(recv_type, leaf)
            # The module defining a class owns its instances' state the
            # way it owns its aggregates: FlowNetwork advancing a Flow's
            # row is the flow engine's internal serialization, not
            # cross-handler interference — PIC702 tracks only locations
            # shared *across* module boundaries.
            if owner not in self._module_classes:
                self.effects.writes.append(((owner, leaf), kind, line, col))
            if recv_type in self.an.job_classes:
                self.effects.cross_job.append((line, col, recv_type))
        if leaf in AGGREGATE_LEAVES:
            self._record_aggregate(leaf, base, recv_type, own, line, col)
        if (
            leaf in WAITER_LEAVES or "waiters" in leaf
        ) and _U in taint:
            self._report(
                "PIC704",
                line,
                col,
                f"value with nondeterministic iteration order stored into "
                f"waiter queue {leaf}; waiter order is a scheduling order — "
                "sort the source or use an ordered container.",
            )

    def _is_own_write(self, recv_type: str | None, root: str | None) -> bool:
        """Writes to our own instance or a fresh local are private."""
        if root is not None and root in self.fresh:
            return True
        if root == "self" and self.an._same_family(recv_type, self.cls):
            return True
        return False

    def _record_aggregate(
        self,
        leaf: str,
        base: list,
        recv_type: str | None,
        own: bool,
        line: int,
        col: int,
    ) -> None:
        if own:
            return
        if recv_type is not None:
            owner = self.an._attr_owner(recv_type, leaf)
            if self._same_module_owner(owner):
                return
            if self.an._same_family(recv_type, self.cls):
                return
            self.effects.aggregate.append((line, col, owner, leaf))
            return
        # Untyped receiver: name-based fallback (``runner._queue``).
        name = _base_tail_name(base)
        if name in AGGREGATE_OWNER_NAMES and not self._defines_leaf(leaf):
            self.effects.aggregate.append((line, col, None, leaf))

    def _same_module_owner(self, owner: str) -> bool:
        return owner in self._module_classes

    def _defines_leaf(self, leaf: str) -> bool:
        if self.cls is None:
            return False
        return self.an._declared_by(self.cls, leaf) is not None

    def _write_site(
        self, target: list
    ) -> tuple[bool, str, list, str | None, str | None] | None:
        keyed = False
        node = target
        while node[0] in ("elem", "slice"):
            keyed = True
            node = node[1]
        if node[0] != "attr":
            return None
        leaf = node[2]
        base = node[1]
        recv_type = self.type_of(base)
        root = _root_of(target)
        return keyed, leaf, base, recv_type, root

    # -- static types ----------------------------------------------------

    def type_of(self, desc: Any) -> str | None:
        if not isinstance(desc, list) or not desc:
            return None
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

    def _ctor_class(self, desc: Any) -> str | None:
        if not isinstance(desc, list) or not desc or desc[0] != "call":
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

    # -- expressions (order taint + reads) -------------------------------

    def eval(self, desc: Any, line: int) -> Taint:
        if not isinstance(desc, list) or not desc:
            return _EMPTY
        kind = desc[0]
        if kind == "const":
            return _EMPTY
        if kind == "name":
            return self.env.get(desc[1], _EMPTY)
        if kind == "attr":
            self.eval(desc[1], line)
            recv_type = self.type_of(desc[1])
            if recv_type is not None and not self._is_own_write(
                recv_type, _root_of(desc)
            ):
                owner = self.an._attr_owner(recv_type, desc[2])
                if owner not in self._module_classes:
                    self.effects.reads.add((owner, desc[2]))
            return _EMPTY
        if kind in ("elem", "slice", "spread"):
            self.eval(desc[1], line)
            return _EMPTY
        if kind == "make":
            taint = _EMPTY
            for item in desc[1]:
                taint = taint | self.eval(item, line)
                if _is_id_call(item):
                    taint = taint | frozenset({_U})
            return taint
        if kind == "comp":
            saved = dict(self.env)
            try:
                taint = _EMPTY
                for names, it in desc[1]:
                    it_taint = self.eval(it, line)
                    taint = taint | it_taint
                    for name in names:
                        self.env[name] = _EMPTY
                for elt in desc[2]:
                    taint = taint | self.eval(elt, line)
                    if _is_id_call(elt):
                        taint = taint | frozenset({_U})
            finally:
                self.env = saved
            return taint
        if kind == "union":
            taint = _EMPTY
            for item in desc[1]:
                taint = taint | self.eval(item, line)
            return taint
        if kind == "bin":
            return self.eval(desc[2], desc[4]) | self.eval(desc[3], desc[4])
        if kind == "cmp":
            for item in desc[2]:
                self.eval(item, desc[3])
            return _EMPTY
        if kind == "seq":
            for item in desc[1]:
                self.eval(item, line)
            return _EMPTY
        if kind == "walrus":
            taint = self.eval(desc[2], line)
            self.env[desc[1]] = taint
            return taint
        if kind == "fnref":
            return _EMPTY
        if kind == "call":
            return self.eval_call(desc)
        return _EMPTY

    def eval_call(self, desc: list) -> Taint:
        _, func, args, kwargs, line, col = desc
        arg_taints = [self.eval(a, line) for a in args]
        kw_taints = {kw: self.eval(d, line) for kw, d in kwargs}
        tail = (
            func[2]
            if func[0] == "meth"
            else (func[1] if func[0] == "ref" else None)
        )
        if func[0] == "meth":
            self.eval(func[1], line)
            arg_union: Taint = _EMPTY
            for t in arg_taints:
                arg_union = arg_union | t
            self._check_mutator_call(func, tail, arg_union, line, col)
        elif func[0] == "desc":
            self.eval(func[1], line)

        self._check_order_sinks(tail, args, arg_taints, kw_taints, line, col)

        if func[0] == "ref" and tail in _UNORDERED_CTORS:
            return frozenset({_U})
        if func[0] == "ref" and tail in _SANITIZERS:
            return _EMPTY

        callees = self.an.callsites.get((self.fid, line, col), [])
        if callees:
            out: set = set()
            for callee in callees:
                out |= self._apply_summary(
                    callee, func, arg_taints, kw_taints, line, col
                )
            return frozenset(out)

        if func[0] == "ref" and tail in _ORDER_PROPAGATORS and arg_taints:
            taint = _EMPTY
            for t in arg_taints:
                taint = taint | t
            return taint
        if func[0] == "meth" and tail in ("items", "keys", "values", "copy"):
            return self.eval(func[1], line)
        return _EMPTY

    def _check_mutator_call(
        self, func: list, tail: str | None, taint: Taint, line: int, col: int
    ) -> None:
        """``x.append(...)``-style mutation of an attribute chain."""
        if tail not in MUTATOR_METHODS:
            return
        recv = func[1]
        site = self._write_site(recv) if isinstance(recv, list) else None
        if site is None:
            return
        keyed, leaf, base, recv_type, root = site
        kind = "keyed" if keyed else "mutcall"
        self._record_write(leaf, base, recv_type, root, kind, taint, line, col)

    def _check_order_sinks(
        self,
        tail: str | None,
        args: list,
        arg_taints: list[Taint],
        kw_taints: dict[str, Taint],
        line: int,
        col: int,
    ) -> None:
        if tail not in ORDER_SINKS:
            return
        index = ORDER_SINKS[tail]
        taint: Taint = _EMPTY
        if len(arg_taints) > index:
            taint = arg_taints[index]
        elif tail == "schedule_batch" and "callbacks" in kw_taints:
            taint = kw_taints["callbacks"]
        if _U in taint:
            self._report(
                "PIC704",
                line,
                col,
                f"iterable with nondeterministic iteration order (built "
                f"from a set or id()-keyed container) passed to {tail}(); "
                "its order becomes the execution/submission order — "
                "sorted(...) it first.",
            )
        for marker in sorted(
            m[1] for m in taint if isinstance(m, tuple) and m[0] == "param"
        ):
            done = self.effects.param_sinks.get(marker, frozenset())
            self.effects.param_sinks[marker] = done | {tail}

    def _apply_summary(
        self,
        fid: str,
        func: list,
        arg_taints: list[Taint],
        kw_taints: dict[str, Taint],
        line: int,
        col: int,
    ) -> set:
        callee = self.graph.function_ir.get(fid)
        effects = self.an.fix.read(fid)
        if callee is None or effects is None:
            return set()
        params = callee["params"]
        rest = (
            params[1:]
            if (
                callee["class"] is not None
                and params[:1] == ["self"]
                and func[0] in ("meth", "desc", "ref")
            )
            else params
        )
        argmap: dict[str, Taint] = {}
        for pname, taint in zip(rest, arg_taints):
            argmap[pname] = taint
        for kw, taint in kw_taints.items():
            if kw in params:
                argmap[kw] = taint

        for pname, sinks in sorted(effects.param_sinks.items()):
            taint = argmap.get(pname, _EMPTY)
            if _U in taint:
                self._report(
                    "PIC704",
                    line,
                    col,
                    f"unordered iterable flows through {callee['qual']}() "
                    f"into an order-sensitive sink "
                    f"({', '.join(sorted(sinks))}); its iteration order "
                    "becomes a schedule — sorted(...) it first.",
                )
            for marker in sorted(
                m[1] for m in taint if isinstance(m, tuple) and m[0] == "param"
            ):
                done = self.effects.param_sinks.get(marker, frozenset())
                self.effects.param_sinks[marker] = done | set(sinks)

        out: set = set()
        for marker in effects.ret_taint:
            if marker == _U:
                out.add(_U)
            elif isinstance(marker, tuple) and marker[0] == "param":
                out |= argmap.get(marker[1], _EMPTY)
        return out

    def _report(self, rule: str, line: int, col: int, message: str) -> None:
        if not self.report:
            return
        key = (rule, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append((rule, self.fid, line, col, message))


def _root_of(desc: list) -> str | None:
    node = desc
    while isinstance(node, list) and node and node[0] in (
        "elem",
        "slice",
        "attr",
    ):
        node = node[1]
    if isinstance(node, list) and node and node[0] == "name":
        return node[1]
    return None


def _base_tail_name(base: list) -> str | None:
    """The nearest name in a receiver chain (``runner`` in
    ``self.runner._queue``)."""
    node = base
    while isinstance(node, list) and node and node[0] in ("elem", "slice"):
        node = node[1]
    if not isinstance(node, list) or not node:
        return None
    if node[0] == "attr":
        return node[2]
    if node[0] == "name":
        return node[1]
    return None


def _is_const(value: Any) -> bool:
    return isinstance(value, list) and bool(value) and value[0] == "const"


def _is_id_call(desc: Any) -> bool:
    return (
        isinstance(desc, list)
        and bool(desc)
        and desc[0] == "call"
        and desc[1][0] == "ref"
        and desc[1][1] == "id"
    )
