"""The one IR walk under the whole-program passes (DESIGN.md §9.1).

A pass evaluates a function by walking its IR once with an abstract
*domain*: a bottom value, a join (``|``) and a handful of transfer
functions.  What is the same in every pass lives in :class:`Walker`,
once: the prologue (function IR, module key, import aliases, enclosing
class), the callee argument binder, the de-duplicating ``report``
whose list the :class:`Fixpoint` keeps as the function's *latest*
findings, and the walk over the linear IR op and descriptor kinds, one
hook per kind where the domains differ.  Sub-expressions are evaluated
in source order, operands before the hook that combines them (recorded
sites are first-site-wins).  It also keeps the one static type
environment (``tenv``, read through :meth:`Walker.type_of`) that tells
the passes what class a receiver is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.lint.project.ir import callee_dotted

if TYPE_CHECKING:
    from repro.lint.project.graph import ProjectGraph


def call_tail(func: list) -> str | None:
    """The last name of a call's ``f`` descriptor: the method of a
    ``meth``, the name of a ``ref``, None for a computed callee."""
    if func[0] == "meth":
        return func[2]
    return func[1] if func[0] == "ref" else None


class Walker:
    """One evaluation of function ``fid`` on behalf of the pass ``an``
    (anything with a ``graph`` and a ``fix``): a single source-order
    walk of its op list over one ``env``."""

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
        #: local name -> abstract value.
        self.env: dict[str, Any] = {}
        #: local name -> static class: annotated parameters, ``self``,
        #: and every bind whose value :meth:`type_of` can type.
        self.tenv: dict[str, str] = {}
        for p, raw in self.fn["param_types"].items():
            cfq = self.graph.resolve_type(raw, self.modkey)
            if cfq:
                self.tenv[p] = cfq
        params = self.fn["params"]
        if self.cls is not None and (params[:1] == ["self"] or "self" not in params):
            # A method's own ``self``, or the free ``self`` of a def or
            # lambda nested in one: method refs resolve through it.
            self.tenv["self"] = self.cls
        self.summary: Any = None

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

    def run(self) -> Any:
        for op in self.fn["ops"]:
            self.op(op)
        return self.summary

    # -- ops -----------------------------------------------------------

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
        elif kind == "with":
            value = self.eval(op[1])
            if op[2] is not None:
                self.with_item(op[2], value)

    def bind(self, name: str, desc: list, value: Any) -> None:
        self.env[name] = value
        cfq = self.type_of(desc)
        if cfq is not None:
            self.tenv[name] = cfq
        else:
            self.tenv.pop(name, None)

    def mutate(
        self, target: list, value: list | None, stored: Any, how: str, line: int, col: int
    ) -> None:
        """A store/del/augmented assignment through ``target``; ``value``
        (None for ``del``) has already been evaluated to ``stored``."""

    def ret(self, value: Any, line: int, col: int) -> None:
        pass

    def kill(self, name: str) -> None:
        self.env.pop(name, None)
        self.tenv.pop(name, None)

    def with_item(self, var: str, value: Any) -> None:
        self.env[var] = value
        self.tenv.pop(var, None)

    # -- static types --------------------------------------------------

    def type_of(self, desc: list) -> str | None:
        """The class ``desc`` evaluates to, when it is known statically."""
        kind = desc[0]
        if kind == "name":
            return self.tenv.get(desc[1])
        if kind == "attr":
            base_t = self.type_of(desc[1])
            return self.graph.attr_type(base_t, desc[2]) if base_t else None
        if kind == "call":
            return self.ctor_class(desc[1])
        if kind == "walrus":
            return self.type_of(desc[2])
        return None

    def ctor_class(self, func: list) -> str | None:
        """The project class a call of ``func`` constructs, if any: the
        callee's dotted name through the import aliases, else the name
        as written, qualified by this module (``Outer.Inner()``)."""
        cfq = self.graph.resolve_class(callee_dotted(func, self.aliases))
        if cfq is None:
            local = callee_dotted(func, None)
            if local is not None:
                cfq = self.graph.resolve_class(f"{self.modkey}.{local}")
        return cfq

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
            self.tenv.pop(name, None)
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
