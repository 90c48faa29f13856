"""Typestate / resource-lifecycle analysis (PIC501–PIC503).

Tracks acquire/release protocols over the block-structured IR
(schema v2) and the resolved call graph.  A *resource* is a local
binding produced by a known acquiring constructor:

=====================  =========================  ====================
kind                   acquired by                must release
=====================  =========================  ====================
``shm``                ``SharedMemory(...)``      ``close`` — plus
                                                  ``unlink`` when
                                                  ``create=`` was
                                                  passed (the block
                                                  outlives the process
                                                  otherwise)
``file``               ``open`` / ``io.open``     ``close``
``mmap``               ``mmap.mmap(...)``         ``close``
``pool``               ``ProcessPoolExecutor`` /  ``shutdown``
                       ``ThreadPoolExecutor``
=====================  =========================  ====================

The walk is path-sensitive enough to be useful: ``if`` branches fork
and join (must-release = intersection, may-release = union), ``with``
bodies run under the context manager's exit guarantee, and ``try``
bodies thread an exception edge into each handler while releases in
the ``finally`` protect every op the block covers.

Checks:

* **PIC501 — leak**: an op that may raise (any non-release call,
  subscript store, explicit ``raise``) executes while an acquired
  resource is unreleased and unprotected; or a ``return`` leaves one
  behind; or the function falls off the end without releasing on every
  path.
* **PIC502 — double release**: a release method runs again after it
  must already have run.
* **PIC503 — use after release**: a non-release method or attribute of
  a fully-released resource is used.

Interprocedural facts come from a small fixpoint over the call graph
(resolved call sites are reused from the alias analysis): a function
may *return* a fresh resource (a helper wrapping
``SharedMemory(name=...)`` → the caller owns the mapping), *release* a
parameter (``closer(f)`` counts as ``f.close()``)
or *store* a parameter (ownership transfer — the caller stops
tracking).  Passing a resource to any call without a release summary
transfers ownership; the analysis prefers silence to false positives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.lint.project.fixpoint import Fixpoint
from repro.lint.project.ir import callee_dotted
from repro.lint.project.walker import Evaluation

if TYPE_CHECKING:
    from repro.lint.project.analysis import ProjectAnalysis

# ----------------------------------------------------------------------
# Protocol knowledge

#: Constructor (dotted name or trailing class name) -> resource kind.
_ACQUIRER_DOTTED = {
    "open": "file",
    "io.open": "file",
    "gzip.open": "file",
    "bz2.open": "file",
    "lzma.open": "file",
    "mmap.mmap": "mmap",
}
_ACQUIRER_TAILS = {
    "SharedMemory": "shm",
    "ProcessPoolExecutor": "pool",
    "ThreadPoolExecutor": "pool",
    # Node-memory cache pins: NodeMemoryCache.pin hands out an owned
    # eviction guard (or None); the method tail is specific enough to
    # treat any .pin(...) as an acquisition.
    "CachePin": "cachepin",
    "pin": "cachepin",
}

#: kind -> the release every instance must see before it goes dead.
_REQUIRED_RELEASE = {
    "pool": frozenset({"shutdown"}),
    "cachepin": frozenset({"release"}),
}
_DEFAULT_REQUIRED = frozenset({"close"})
#: kind -> what a context manager's __exit__ performs.
_CM_RELEASE = {
    "shm": "close",
    "file": "close",
    "mmap": "close",
    "pool": "shutdown",
    "cachepin": "release",
}
#: Every known release-method name (for parameter summaries).
RELEASE_ANY = frozenset({"close", "unlink", "shutdown", "release"})
#: Attribute reads that are safe on a released resource.
_BENIGN_ATTRS = frozenset({"closed", "name", "mode", "_closed"})

_KIND_NOUN = {
    "shm": "shared-memory block",
    "file": "file handle",
    "mmap": "mmap handle",
    "pool": "executor pool",
    "cachepin": "cache pin",
}


class Res:
    """One tracked resource (shared between aliasing local names)."""

    __slots__ = (
        "kind", "line", "col", "required", "done_must", "done_may",
        "escaped", "param", "reported",
    )

    def __init__(
        self,
        kind: str,
        line: int,
        col: int,
        required: frozenset[str],
        param: str | None = None,
    ) -> None:
        self.kind = kind
        self.line = line
        self.col = col
        self.required = required
        self.done_must: set[str] = set()
        self.done_may: set[str] = set()
        self.escaped = bool(param)
        self.param = param
        self.reported: set[str] = set()

    def fork(self) -> "Res":
        twin = Res(self.kind, self.line, self.col, self.required, self.param)
        twin.done_must = set(self.done_must)
        twin.done_may = set(self.done_may)
        twin.escaped = self.escaped
        twin.reported = self.reported  # shared: one report per resource
        return twin

    def released(self) -> bool:
        """Fully released on every path walked so far."""
        if self.param is not None:
            return bool({"close", "shutdown", "release"} & self.done_must)
        return self.required <= self.done_must


class ResourceSummary:
    """Interprocedural facts one function exposes to its callers."""

    def __init__(self) -> None:
        self.releases_params: dict[str, frozenset[str]] = {}
        self.param_escapes: set[str] = set()
        #: (kind, required) when the return value is a fresh resource.
        self.returns_resource: tuple[str, list[str]] | None = None

    def key(self) -> tuple:
        return (
            tuple(sorted((p, tuple(sorted(m))) for p, m in self.releases_params.items())),
            tuple(sorted(self.param_escapes)),
            self.returns_resource if self.returns_resource is None
            else (self.returns_resource[0], tuple(self.returns_resource[1])),
        )


class TypestateAnalysis:
    """Converged lifecycle summaries plus the findings they imply."""

    MAX_ROUNDS = 6

    def __init__(self, project: "ProjectAnalysis") -> None:
        self.project = project
        self.graph = project.graph
        #: (caller fid, line, col) -> callee fids, from the alias pass.
        self.callsites = project.callsites
        self.fix = Fixpoint()
        self.summaries: dict[str, ResourceSummary] = self.fix.summaries
        self.findings: list[tuple[str, str, int, int, str]] = self.fix.solve(
            sorted(self.graph.function_ir),
            lambda fid: _Walker(self, fid).run(),
            self.MAX_ROUNDS,
        )


class _Walker(Evaluation):
    """One path-sensitive pass over a function's block-structured ops:
    environments fork at branches and join after them, so it walks by
    itself and shares only the per-function prologue, the argument
    binder and ``report`` with the other passes."""

    def __init__(self, an: TypestateAnalysis, fid: str) -> None:
        super().__init__(an, fid)
        self.summary = ResourceSummary()
        #: Stack of (res-id -> protected methods) from enclosing
        #: finally blocks and with bodies.
        self._protection: list[dict[int, set[str]]] = []
        #: Depth of enclosing try statements that have except handlers.
        self._handled_depth = 0
        #: Calls seen while scanning the current op that are not pure
        #: release invocations (i.e. the op may raise mid-flight).
        self._risky_calls = 0

    # -- entry ---------------------------------------------------------

    def run(self) -> ResourceSummary:
        env: dict[str, Res] = {}
        for p in self.fn["params"]:
            env[p] = Res("param", self.fn["line"], 0, frozenset(), param=p)
        self.walk(self.fn["ops"], env)
        self._end_of_function(env)
        return self.summary

    def _end_of_function(self, env: dict[str, Res]) -> None:
        for res in self._live(env):
            if res.param is not None or res.escaped:
                continue
            missing = res.required - res.done_must
            if missing:
                self._report(
                    "PIC501",
                    res,
                    res.line,
                    res.col,
                    f"{_KIND_NOUN[res.kind]} acquired here is not "
                    f"{_methods_noun(missing)} on every path through the "
                    "function; release in a finally (or use a with block) "
                    "so no path can leak it.",
                )

    # -- op walking ----------------------------------------------------

    def walk(self, ops: Iterable[list], env: dict[str, Res]) -> None:
        for op in ops:
            self.op(op, env)

    def op(self, op: list, env: dict[str, Res]) -> None:
        kind = op[0]
        if kind == "bind":
            _, name, desc, line = op
            self._risky_calls = 0
            res = self.scan(desc, env, line)
            self._raise_check(env, line, exclude=res)
            if res is not None:
                env[name] = res
            else:
                env.pop(name, None)
        elif kind == "eval":
            self._risky_calls = 0
            self.scan(op[1], env, op[2])
            self._raise_check(env, op[2])
        elif kind == "mutate":
            _, target, value, how, line, col = op
            self._risky_calls = 0
            # A subscript/attr store can raise; storing a resource into
            # a container or attribute transfers ownership.
            if target[0] in ("elem", "slice"):
                self._risky_calls += 1
                self.scan(target[1], env, line)
            elif target[0] == "attr":
                self.scan(target[1], env, line)
            if value is not None:
                self.scan(value, env, line, escape=True)
            self._raise_check(env, line)
        elif kind == "ret":
            _, desc, line, col = op
            self._risky_calls = 0
            # A resource that already escaped (stored in a global, a
            # container...) stays owned elsewhere — returning it hands
            # out a borrow, not ownership.
            pre_escaped = {id(r) for r in self._live(env) if r.escaped}
            returned = self.scan(desc, env, line, escape=True)
            if (
                returned is not None
                and returned.param is None
                and not returned.done_may
                and id(returned) not in pre_escaped
            ):
                self.summary.returns_resource = (
                    returned.kind,
                    sorted(returned.required),
                )
            self._return_check(env, line, col)
        elif kind == "raise":
            if op[1] is not None:
                self._risky_calls = 0
                self.scan(op[1], env, op[2])
            self._raise_check(env, op[2], explicit=True)
        elif kind == "defl":
            env.pop(op[1], None)
        elif kind == "kill":
            env.pop(op[1], None)
        elif kind == "if":
            self._risky_calls = 0
            self.scan(op[1], env, op[4])
            self._raise_check(env, op[4])
            left = _copy_env(env)
            self.walk(op[2], left)
            right = _copy_env(env)
            self.walk(op[3], right)
            env.clear()
            env.update(_join_env(left, right))
        elif kind == "with":
            self._with(op, env)
        elif kind == "try":
            self._try(op, env)

    def _with(self, op: list, env: dict[str, Res]) -> None:
        _, items, body, line = op
        managed: list[Res] = []
        frame: dict[int, set[str]] = {}
        for ctx, var in items:
            self._risky_calls = 0
            res = self.scan(ctx, env, line)
            self._raise_check(env, line)
            if res is not None:
                managed.append(res)
                frame[id(res)] = {_CM_RELEASE.get(res.kind, "close")}
                if var is not None:
                    env[var] = res
            elif var is not None:
                env.pop(var, None)
        self._protection.append(frame)
        try:
            self.walk(body, env)
        finally:
            self._protection.pop()
        for res in managed:
            method = _CM_RELEASE.get(res.kind, "close")
            res.done_must.add(method)
            res.done_may.add(method)

    def _try(self, op: list, env: dict[str, Res]) -> None:
        _, body, handlers, orelse, final, _line = op
        pre = _copy_env(env)
        frame = self._finally_releases(final, env)
        self._protection.append(frame)
        if handlers:
            self._handled_depth += 1
        try:
            # Exception edge: op k raising means ops 1..k-1 completed, so
            # a handler may enter in the state *before* any body op — the
            # post-body state is only reachable without an exception.
            entry = _copy_env(pre)
            for bop in body:
                entry = _join_env(entry, _copy_env(env))
                self.op(bop, env)
            outs = []
            for _name, handler_ops in handlers:
                henv = _copy_env(entry)
                self.walk(handler_ops, henv)
                outs.append(henv)
            self.walk(orelse, env)
        finally:
            if handlers:
                self._handled_depth -= 1
            self._protection.pop()
        merged = env
        for henv in outs:
            merged = _join_env(merged, henv)
        if merged is not env:
            env.clear()
            env.update(merged)
        self.walk(final, env)

    def _finally_releases(
        self, final_ops: list, env: dict[str, Res]
    ) -> dict[int, set[str]]:
        """Which releases the finally block guarantees, per resource."""
        frame: dict[int, set[str]] = {}

        def scan_ops(ops: Iterable[list]) -> None:
            for op in ops:
                kind = op[0]
                if kind in ("eval", "bind"):
                    desc = op[1] if kind == "eval" else op[2]
                    scan_desc(desc)
                elif kind == "try":
                    scan_ops(op[1])
                    for _n, hops in op[2]:
                        scan_ops(hops)
                    scan_ops(op[3])
                    scan_ops(op[4])
                elif kind == "with":
                    scan_ops(op[2])
                elif kind == "if":
                    # Conditional release does not protect.
                    continue

        def scan_desc(desc: list) -> None:
            if desc[0] == "call":
                func = desc[1]
                if (
                    func[0] == "meth"
                    and func[1][0] == "name"
                    and func[2] in RELEASE_ANY
                ):
                    res = env.get(func[1][1])
                    if res is not None:
                        frame.setdefault(id(res), set()).add(func[2])
                for callee, pname, res in self._project_call_args(desc, env):
                    methods = self.an.fix.read(callee)
                    released = methods.releases_params.get(pname) if methods else None
                    if released:
                        frame.setdefault(id(res), set()).update(released)
            elif desc[0] == "seq":
                for item in desc[1]:
                    scan_desc(item)

        scan_ops(final_ops)
        return frame

    # -- checks --------------------------------------------------------

    def _live(self, env: dict[str, Res]) -> list[Res]:
        seen: dict[int, Res] = {}
        for res in env.values():
            seen.setdefault(id(res), res)
        return [seen[k] for k in sorted(seen, key=lambda i: (seen[i].line, seen[i].col))]

    def _protected(self, res: Res) -> set[str]:
        out: set[str] = set()
        for frame in self._protection:
            out.update(frame.get(id(res), ()))
        return out

    def _raise_check(
        self, env: dict[str, Res], line: int, exclude: Res | None = None,
        explicit: bool = False,
    ) -> None:
        """PIC501 at an op that may raise with live unprotected resources."""
        if not explicit and self._risky_calls == 0:
            return
        if self._handled_depth > 0 and not explicit:
            return  # a handler may recover and release; prefer silence
        for res in self._live(env):
            if res is exclude or res.param is not None or res.escaped:
                continue
            missing = res.required - res.done_may - self._protected(res)
            if not missing:
                continue
            why = "this raise" if explicit else "an exception here"
            self._report(
                "PIC501",
                res,
                line,
                0,
                f"{why} leaks the {_KIND_NOUN[res.kind]} acquired at line "
                f"{res.line}: it is not yet {_methods_noun(missing)} and no "
                "enclosing finally releases it. Wrap the acquire in "
                "try/finally (or a with block).",
            )

    def _return_check(self, env: dict[str, Res], line: int, col: int) -> None:
        for res in self._live(env):
            if res.param is not None or res.escaped:
                continue
            missing = res.required - res.done_must - self._protected(res)
            if missing:
                self._report(
                    "PIC501",
                    res,
                    line,
                    col,
                    f"returning here leaks the {_KIND_NOUN[res.kind]} "
                    f"acquired at line {res.line}: it is never "
                    f"{_methods_noun(missing)} on this path.",
                )

    def _report(
        self, rule: str, res: Res, line: int, col: int, message: str
    ) -> None:
        """One report per rule per resource, however many paths hit it."""
        if rule not in res.reported:
            res.reported.add(rule)
            self.report(rule, line, col, message)

    # -- descriptor scanning -------------------------------------------

    def scan(
        self, desc: list, env: dict[str, Res], line: int, escape: bool = False
    ) -> Res | None:
        """Process ``desc``: acquisitions, releases, uses, escapes.

        Returns the resource the descriptor's *value* is, if any.
        """
        kind = desc[0]
        if kind == "name":
            res = env.get(desc[1])
            if res is not None and escape:
                self._escape(res)
            return res
        if kind == "attr":
            base = self.scan(desc[1], env, line)
            if base is not None and desc[2] not in _BENIGN_ATTRS:
                self._use_check(base, line, f".{desc[2]}")
            return None
        if kind in ("elem", "slice"):
            base = self.scan(desc[1], env, line)
            if base is not None:
                self._use_check(base, line, "[...]")
            return None
        if kind == "call":
            return self._call(desc, env, line, escape)
        if kind == "walrus":
            res = self.scan(desc[2], env, line, escape)
            if res is not None:
                env[desc[1]] = res
            return res
        if kind == "union":
            out: Res | None = None
            for item in desc[1]:
                res = self.scan(item, env, line, escape)
                out = out or res
            return out
        if kind == "make":
            for item in desc[1]:
                self.scan(item, env, line, escape=True)
            return None
        if kind == "spread":
            return self.scan(desc[1], env, line, escape)
        if kind == "bin":
            self.scan(desc[2], env, line)
            self.scan(desc[3], env, line)
            return None
        if kind == "cmp":
            for item in desc[2]:
                self.scan(item, env, line)
            return None
        if kind == "seq":
            for item in desc[1]:
                self.scan(item, env, line)
            return None
        if kind == "comp":
            for _names, it in desc[1]:
                self.scan(it, env, line)
            for elt in desc[2]:
                self.scan(elt, env, line)
            return None
        return None

    def _call(
        self, desc: list, env: dict[str, Res], line: int, escape: bool
    ) -> Res | None:
        _, func, args, kwargs, cline, col = desc
        # Method on a tracked resource: release or use.
        if func[0] == "meth" and func[1][0] == "name":
            res = env.get(func[1][1])
            if res is not None:
                attr = func[2]
                for a in args:
                    self.scan(a, env, line, escape=True)
                for _kw, d in kwargs:
                    self.scan(d, env, line, escape=True)
                if attr in RELEASE_ANY:
                    self._release(res, attr, cline, col)
                    return None
                self._risky_calls += 1
                self._use_check(res, cline, f".{attr}()")
                return None
        if func[0] in ("meth", "desc"):
            self.scan(func[1], env, line)

        # Arguments: releases through project callees, else escape.
        callees = self.an.callsites.get((self.fid, cline, col), [])
        handled: set[int] = set()
        for callee, pname, res in self._project_call_args(desc, env):
            summary = self.an.fix.read(callee)
            if summary is None:
                continue
            released = summary.releases_params.get(pname)
            if released:
                for method in sorted(released):
                    self._release(res, method, cline, col)
                handled.add(id(res))
        for a in args:
            self._scan_arg(a, env, line, handled)
        for _kw, d in kwargs:
            self._scan_arg(d, env, line, handled)

        # Is this call itself an acquisition?
        acquired = self._acquisition(func, kwargs, cline, col)
        if acquired is None and callees:
            for callee in callees:
                summary = self.an.fix.read(callee)
                if summary is not None and summary.returns_resource is not None:
                    rkind, required = summary.returns_resource
                    acquired = Res(rkind, cline, col, frozenset(required))
                    break
        if acquired is None:
            self._risky_calls += 1
        if acquired is not None and escape:
            self._escape(acquired)
        return acquired

    def _scan_arg(
        self, desc: list, env: dict[str, Res], line: int, handled: set[int]
    ) -> None:
        if desc[0] == "name":
            res = env.get(desc[1])
            if res is not None and id(res) not in handled:
                self._escape(res)
            return
        self.scan(desc, env, line, escape=True)

    def _project_call_args(
        self, desc: list, env: dict[str, Res]
    ) -> list[tuple[str, str, Res]]:
        """(callee fid, callee param, resource) for tracked direct args."""
        _, func, args, kwargs, cline, col = desc
        out: list[tuple[str, str, Res]] = []
        callees = self.an.callsites.get((self.fid, cline, col), [])
        if not callees:
            return out
        for callee in callees:
            fn = self.graph.function_ir.get(callee)
            if fn is None:
                continue
            for pname, a in self.bind_args(fn, func, args, dict(kwargs)).items():
                if a is not None and a[0] == "name":
                    res = env.get(a[1])
                    if res is not None:
                        out.append((callee, pname, res))
        return out

    def _acquisition(
        self, func: list, kwargs: list, line: int, col: int
    ) -> Res | None:
        dotted = callee_dotted(func, self.aliases)
        kind: str | None = None
        if dotted is not None:
            kind = _ACQUIRER_DOTTED.get(dotted)
            if kind is None:
                kind = _ACQUIRER_TAILS.get(dotted.rpartition(".")[2])
        if kind is None and func[0] == "ref":
            kind = _ACQUIRER_DOTTED.get(func[1]) or _ACQUIRER_TAILS.get(func[1])
        if kind is None and func[0] == "meth":
            kind = _ACQUIRER_TAILS.get(func[2])
        if kind is None:
            return None
        required = set(_REQUIRED_RELEASE.get(kind, _DEFAULT_REQUIRED))
        if kind == "shm" and any(kw == "create" for kw, _d in kwargs):
            required.add("unlink")
        return Res(kind, line, col, frozenset(required))

    # -- state transitions ---------------------------------------------

    def _release(self, res: Res, method: str, line: int, col: int) -> None:
        if res.param is not None:
            if method in RELEASE_ANY:
                done = self.summary.releases_params.get(res.param, frozenset())
                self.summary.releases_params[res.param] = done | {method}
        if method in res.done_must and not res.escaped:
            self._report(
                "PIC502",
                res,
                line,
                col,
                f"'{method}' called again on the {_noun(res)} already "
                f"released this way (first release guaranteed before this "
                "line); double releases mask lifecycle bugs and can raise.",
            )
        res.done_must.add(method)
        res.done_may.add(method)

    def _use_check(self, res: Res, line: int, what: str) -> None:
        if res.escaped or not res.released():
            return
        self._report(
            "PIC503",
            res,
            line,
            0,
            f"'{what}' used after the {_noun(res)} was released; the "
            "handle no longer owns its underlying object, so this read "
            "fails or touches freed state.",
        )

    def _escape(self, res: Res) -> None:
        res.escaped = True
        if res.param is not None:
            self.summary.param_escapes.add(res.param)


# ----------------------------------------------------------------------
# Environment fork/join


def _copy_env(env: dict[str, Res]) -> dict[str, Res]:
    memo: dict[int, Res] = {}
    out: dict[str, Res] = {}
    for name, res in env.items():
        twin = memo.get(id(res))
        if twin is None:
            twin = memo[id(res)] = res.fork()
        out[name] = twin
    return out


def _join_env(a: dict[str, Res], b: dict[str, Res]) -> dict[str, Res]:
    out: dict[str, Res] = {}
    for name, left in a.items():
        right = b.get(name)
        if right is None:
            out[name] = left
            continue
        if (left.kind, left.line, left.col) != (right.kind, right.line, right.col):
            out[name] = left
            continue
        joined = left  # reuse one side; mutate to the join
        joined.done_must = set(left.done_must & right.done_must)
        joined.done_may = set(left.done_may | right.done_may)
        joined.escaped = left.escaped or right.escaped
        out[name] = joined
    for name, right in b.items():
        if name not in out:
            out[name] = right
    return out


def _methods_noun(methods: Iterable[str]) -> str:
    ordered = sorted(methods)
    if len(ordered) == 1:
        return f"{ordered[0]}()d"
    return " + ".join(f"{m}()" for m in ordered) + "'d"


def _noun(res: Res) -> str:
    if res.param is not None:
        return f"'{res.param}' argument"
    return _KIND_NOUN.get(res.kind, "resource")
