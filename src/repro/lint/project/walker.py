"""The one IR walk under the whole-program passes (DESIGN.md §9.1).

A pass evaluates a function by walking its IR once with an abstract
*domain*: a bottom value, a join (``|``) and a handful of transfer
functions.  What is the same in every pass lives here, once:

* :class:`Evaluation` — the prologue (function IR, module key, import
  aliases, enclosing class), the callee argument binder and the
  de-duplicating ``report`` whose list the :class:`Fixpoint` keeps as
  the function's *latest* findings;
* :class:`Walker` — the structural walk over the IR-v2 op and
  descriptor kinds, one hook per kind where the domains differ;
  sub-expressions are evaluated in source order, operands before the
  hook that combines them (recorded sites are first-site-wins);
* :class:`TaintWalker` — the marker-set domain with ``("param",
  name)`` polymorphism, instantiated for unit and for order taint.

The path-sensitive typestate pass forks and joins environments, which
is a different traversal: it builds on :class:`Evaluation` only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.lint.project.graph import ProjectGraph


def call_tail(func: list) -> str | None:
    """The last name of a call's ``f`` descriptor: the method of a
    ``meth``, the name of a ``ref``, None for a computed callee."""
    if func[0] == "meth":
        return func[2]
    return func[1] if func[0] == "ref" else None


class Evaluation:
    """One evaluation of function ``fid`` on behalf of the pass ``an``
    (anything with a ``graph`` and a ``fix``)."""

    #: What stands for "nothing known" in the pass's domain.
    bottom: Any = None

    def __init__(self, an: Any, fid: str) -> None:
        self.an = an
        self.graph: ProjectGraph = an.graph
        self.fid = fid
        self.fn = self.graph.function_ir[fid]
        self.modkey = fid.split("::", 1)[0]
        self.aliases: dict[str, str] = self.graph.modules[self.modkey]["aliases"]
        #: Enclosing class (also for a def or lambda nested in a method).
        self.cls = (
            f"{self.modkey}.{self.fn['class']}"
            if self.fn["class"] is not None
            else None
        )
        #: ``(rule, fid, line, col, message)``; the list of the latest
        #: evaluation is what the pass reports for ``fid``.
        self.findings: list[tuple[str, str, int, int, str]] = []
        an.fix.found[fid] = self.findings
        self._reported: set[tuple] = set()

    def report(self, rule: str, line: int, col: int, message: str) -> None:
        key = (rule, line, col, message)
        if key not in self._reported:
            self._reported.add(key)
            self.findings.append((rule, self.fid, line, col, message))

    def bind_args(
        self, callee: dict, func: list, args: Iterable[Any], kwargs: dict[str, Any]
    ) -> dict[str, Any]:
        """Callee parameter name -> what this call passes for it.

        A method's leading ``self`` takes no positional argument — it is
        the call's :meth:`receiver`; surplus positionals and keywords
        the callee does not declare (``**`` included) bind nothing.
        """
        params = callee["params"]
        bound: dict[str, Any] = {}
        if callee["class"] is not None and params[:1] == ["self"]:
            bound["self"] = self.receiver(func)
            bound.update(zip(params[1:], args))
        else:
            bound.update(zip(params, args))
        bound.update((kw, value) for kw, value in kwargs.items() if kw in params)
        return bound

    def receiver(self, func: list) -> Any:
        """The value bound to a method callee's ``self``."""
        return self.bottom


class Walker(Evaluation):
    """The flow-insensitive-over-blocks walk: both arms of an ``if`` and
    every part of a ``try`` execute, in source order, over one ``env``."""

    def __init__(self, an: Any, fid: str) -> None:
        super().__init__(an, fid)
        #: local name -> abstract value.
        self.env: dict[str, Any] = {}
        #: local name -> class, for the domains that track static types.
        self.tenv: dict[str, str] = {}
        self.summary: Any = None

    def run(self) -> Any:
        self.walk(self.fn["ops"])
        return self.summary

    # -- ops -----------------------------------------------------------

    def walk(self, ops: Iterable[list]) -> None:
        for op in ops:
            self.op(op)

    def op(self, op: list) -> None:
        kind = op[0]
        if kind == "bind":
            self.bind(op[1], op[2], self.eval(op[2]))
        elif kind == "eval":
            self.eval(op[1])
        elif kind == "mutate":
            _, target, value, how, line, col = op
            stored = self.eval(value) if value is not None else self.bottom
            self.mutate(target, value, stored, how, line, col)
        elif kind == "ret":
            self.ret(self.eval(op[1]), op[2], op[3])
        elif kind == "defl":
            self.env[op[1]] = self.fnref(op[2])
        elif kind == "kill":
            self.kill(op[1])
        elif kind == "raise":
            if op[1] is not None:
                self.eval(op[1])
        elif kind == "if":
            self.eval(op[1])
            self.walk(op[2])
            self.walk(op[3])
        elif kind == "with":
            for ctx, var in op[1]:
                value = self.eval(ctx)
                if var is not None:
                    self.with_item(var, value)
            self.walk(op[2])
        elif kind == "try":
            self.walk(op[1])
            for _name, handler_ops in op[2]:
                self.walk(handler_ops)
            self.walk(op[3])
            self.walk(op[4])

    def bind(self, name: str, desc: list, value: Any) -> None:
        self.env[name] = value

    def mutate(
        self, target: list, value: list | None, stored: Any, how: str, line: int, col: int
    ) -> None:
        """A store/del/augmented assignment through ``target``; ``value``
        (None for ``del``) has already been evaluated to ``stored``."""

    def ret(self, value: Any, line: int, col: int) -> None:
        pass

    def kill(self, name: str) -> None:
        self.env.pop(name, None)

    def with_item(self, var: str, value: Any) -> None:
        self.env[var] = value

    # -- descriptors ---------------------------------------------------

    def eval(self, desc: list) -> Any:
        kind = desc[0]
        if kind == "name":
            return self.env.get(desc[1], self.bottom)
        if kind == "attr":
            return self.attr(desc, self.eval(desc[1]))
        if kind in ("elem", "slice", "spread"):
            return self.sub(kind, self.eval(desc[1]))
        if kind == "make":
            out = self.bottom
            for item in desc[1]:
                out = out | self.item(item, self.eval(item))
            return out
        if kind == "comp":
            # A comprehension binds in its own scratch scope.
            saved = dict(self.env), dict(self.tenv)
            try:
                out = self.bottom
                for names, it in desc[1]:
                    out = out | self.comp_bind(names, self.eval(it))
                for elt in desc[2]:
                    out = out | self.item(elt, self.eval(elt))
            finally:
                self.env, self.tenv = saved
            return out
        if kind == "union":
            out = self.bottom
            for item in desc[1]:
                out = out | self.eval(item)
            return out
        if kind == "bin":
            return self.bin(desc, self.eval(desc[2]), self.eval(desc[3]))
        if kind == "cmp":
            return self.cmp(desc, [self.eval(item) for item in desc[2]])
        if kind == "seq":
            for item in desc[1]:
                self.eval(item)
            return self.bottom
        if kind == "walrus":
            value = self.env[desc[1]] = self.eval(desc[2])
            return value
        if kind == "fnref":
            return self.fnref(desc[1])
        if kind == "call":
            args = [self.eval(a) for a in desc[2]]
            return self.call(desc, args, {kw: self.eval(d) for kw, d in desc[3]})
        return self.bottom  # const

    def attr(self, desc: list, base: Any) -> Any:
        """``base.<desc[2]>``."""
        return self.bottom

    def sub(self, kind: str, base: Any) -> Any:
        """An element (``elem``, ``spread``) or a ``slice`` of ``base``."""
        return base

    def item(self, desc: list, value: Any) -> Any:
        """What the item ``desc`` contributes to the display (or the
        comprehension result) that holds it."""
        return value

    def comp_bind(self, names: list[str], value: Any) -> Any:
        """Bind a comprehension's targets to elements of the iterable
        ``value``; returns what iterating contributes to the result."""
        for name in names:
            self.env[name] = value
        return self.bottom

    def bin(self, desc: list, left: Any, right: Any) -> Any:
        return left | right

    def cmp(self, desc: list, values: list) -> Any:
        return self.bottom

    def fnref(self, fid: str) -> Any:
        """A nested def or lambda, as a value."""
        return self.bottom

    def call(self, desc: list, args: list, kwargs: dict[str, Any]) -> Any:
        """A call whose arguments (in order, then keywords) evaluated to
        ``args``/``kwargs``; the callee expression is the domain's."""
        return self.bottom


class TaintWalker(Walker):
    """Marker sets with parameter polymorphism.

    The summary (``self.summary``) holds the markers the function may
    return under the attribute :attr:`RET` and, in ``param_sinks``, the
    sinks each parameter may reach; :meth:`through_callees` replays both
    at a resolved call site.
    """

    bottom: frozenset = frozenset()
    #: Summary attribute holding the returned markers.
    RET = "ret"

    def __init__(self, an: Any, fid: str, summary: Any) -> None:
        super().__init__(an, fid)
        self.summary = summary
        for p in self.fn["params"]:
            self.env[p] = frozenset({("param", p)})

    def ret(self, value: frozenset, line: int, col: int) -> None:
        setattr(self.summary, self.RET, getattr(self.summary, self.RET) | value)

    def reach(self, value: frozenset, sinks: Iterable[str]) -> None:
        """Every parameter ``value`` may stand for reaches ``sinks``."""
        for p in sorted(m[1] for m in value if isinstance(m, tuple)):  # pic: noqa: PIC003 (sorted)
            done = self.summary.param_sinks.get(p, frozenset())
            self.summary.param_sinks[p] = done | frozenset(sinks)

    def through_callees(
        self, desc: list, args: list, kwargs: dict[str, frozenset]
    ) -> frozenset | None:
        """What the project functions this call site resolves to may
        return for these arguments, after :meth:`passed_to_sinks` has
        seen each argument a callee forwards to a sink.  None when the
        site resolves to no project function."""
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
                    self.passed_to_sinks(callee, bound[pname], sinks, line, col)
            for marker in getattr(summary, self.RET):
                if isinstance(marker, str):
                    out.add(marker)
                else:
                    out |= bound.get(marker[1], self.bottom)
        return frozenset(out)

    def passed_to_sinks(
        self, callee: dict, value: frozenset, sinks: frozenset, line: int, col: int
    ) -> None:
        """``value`` is passed for a parameter ``callee`` hands on to
        ``sinks``: check it, and :meth:`reach` for our own parameters."""
        raise NotImplementedError
