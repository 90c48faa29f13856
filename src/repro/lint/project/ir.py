"""Lowering: one module's AST → a serializable dataflow IR.

The IR is deliberately tiny.  Each function becomes a list of *ops*
(source order; loop bodies are inlined and both branches of an ``if``
are kept visible — the alias analysis is a may-analysis, while the
typestate analysis walks the block structure) over nested *descriptors*
describing where a value came from:

========================  =============================================
descriptor                meaning
========================  =============================================
``["const"]``             an opaque fresh value (literal, unknown call)
``["name", x]``           the local binding ``x``
``["attr", b, a]``        attribute load ``b.a``
``["elem", b]``           an element of ``b`` (index, iteration, key)
``["slice", b]``          ``b[i:j]`` — a fresh container of b's elements
``["make", items]``       a display: list/tuple/set/dict literal
``["comp", gens, elts]``  a comprehension (own scratch scope)
``["union", items]``      either-of (``a or b``, ``x if c else y``)
``["bin", op, l, r, ln, c]``  ``a <op> b`` (op: ``Add``, ``Sub``, ...)
``["cmp", ops, items, ln, c]``  a comparison chain (ops: ``Lt``, ...)
``["seq", items]``        evaluate for effect, result fresh
``["walrus", x, d]``      ``x := d`` — binds and yields ``d``
``["spread", d]``         ``*d`` inside a display or call
``["fnref", fid]``        a reference to a nested def / lambda
``["call", f, a, k, l, c]``  a call; ``f`` is ``["ref", name]``,
                          ``["meth", base, attr]`` or ``["desc", d]``
========================  =============================================

Linear ops: ``["bind", name, d, line]`` (a tuple target is one bind
per name, each of an ``elem`` of the value), ``["eval", d, line]``,
``["mutate", target_d, value_d|None, kind, line, col]`` (kind
``store``/``del``/``aug:<Op>``), ``["ret", d, line, col]``, ``["defl",
name, fid, line]``, ``["kill", name]`` and ``["raise", d|None, line]``.

Block ops carry nested op lists so path-sensitive analyses see
control structure and exception edges (schema v2):

* ``["if", test_d, body, orelse, line]``
* ``["with", [[ctx_d, var|None], ...], body, line]``
* ``["try", body, [[name|None, handler], ...], orelse, final, line]``

Everything is plain lists/dicts/strings so the incremental cache can
round-trip a module's IR through JSON without touching the AST again.
"""

from __future__ import annotations

import ast
from typing import Any, Sequence

from repro.lint.module import LintModule, import_aliases

#: Bump when the IR shape changes: invalidates every cache entry.
#: v2: exception-edge block ops (try/with/if), raise ops, operator
#: names on bin/cmp descriptors (typestate + unit-taint analyses).
IR_SCHEMA_VERSION = 2

Desc = list  # nested ["kind", ...] lists; JSON-serializable
Op = list


def build_module_ir(
    module: LintModule, module_name: str | None, is_package: bool = False
) -> dict[str, Any]:
    """Lower ``module`` to the module IR dict (see module docstring)."""
    builder = _ModuleLowering(module.path, module_name, is_package)
    builder.run(module)
    return {
        "version": IR_SCHEMA_VERSION,
        "path": module.path,
        "module": module_name,
        "is_package": is_package,
        "aliases": builder.aliases,
        "classes": builder.classes,
        "functions": builder.functions,
    }


def callee_dotted(func: Desc, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call's ``f`` descriptor through the
    module's import ``aliases``: a bare ``ref`` falls back to its own
    name, a method chain not rooted at an import gives None."""
    parts: list[str] = []
    node = func
    if node[0] == "meth":
        parts.append(node[2])
        node = node[1]
        while node[0] == "attr":
            parts.append(node[2])
            node = node[1]
    elif node[0] == "ref":
        return aliases.get(node[1], node[1])
    if node[0] != "name":
        return None
    head = aliases.get(node[1])
    if head is None:
        return None
    parts.append(head)
    return ".".join(reversed(parts))


def strip_subscripts(desc: Desc) -> Desc:
    """``desc`` without its enclosing ``elem``/``slice`` links: the
    container an ``x[i][j:k]`` chain indexes into."""
    while desc[0] in ("elem", "slice"):
        desc = desc[1]
    return desc


def root_name(desc: Desc) -> str | None:
    """The local name a load/store chain is rooted at, if any."""
    while desc[0] in ("elem", "slice", "attr"):
        desc = desc[1]
    return desc[1] if desc[0] == "name" else None


def base_tail_name(base: Desc) -> str | None:
    """The nearest name in a receiver chain (``runner`` in
    ``self.runner._queue``)."""
    node = strip_subscripts(base)
    if node[0] == "attr":
        return node[2]
    return node[1] if node[0] == "name" else None


def attr_chain(desc: Desc) -> tuple[list[str], str] | None:
    """``(["self", "cluster"], "_flows")`` for ``self.cluster._flows[...]``.

    Returns None when the target is not an attribute store/chain.
    """
    node = strip_subscripts(desc)
    if node[0] != "attr":
        return None
    leaf = node[2]
    names: list[str] = []
    node = strip_subscripts(node[1])
    while node[0] == "attr":
        names.append(node[2])
        node = strip_subscripts(node[1])
    if node[0] == "name":
        names.append(node[1])
    names.reverse()
    return names, leaf


# ----------------------------------------------------------------------
# Lowering


class _ModuleLowering:
    def __init__(self, path: str, module_name: str | None, is_package: bool) -> None:
        self.path = path
        self.module_name = module_name
        self.is_package = is_package
        self.modkey = module_name or path
        self.aliases: dict[str, str] = {}
        self.classes: dict[str, dict[str, Any]] = {}
        self.functions: dict[str, dict[str, Any]] = {}

    def run(self, module: LintModule) -> None:
        self.aliases = import_aliases(
            module.nodes, self.module_name, self.is_package
        )
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._lower_function(node, qual=node.name, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._lower_class(node)

    # -- classes -------------------------------------------------------

    def _lower_class(self, node: ast.ClassDef) -> None:
        info: dict[str, Any] = {
            "line": node.lineno,
            "bases": [d for d in (self._dotted(b) for b in node.bases) if d],
            "methods": {},
            "attr_types": {},
        }
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fid = self._lower_function(
                    stmt, qual=f"{node.name}.{stmt.name}", class_name=node.name
                )
                info["methods"][stmt.name] = fid
                if stmt.name == "__init__":
                    self._init_attr_types(stmt, info["attr_types"])
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # dataclass-style field declaration
                ann = self._annotation(stmt.annotation)
                if ann:
                    info["attr_types"].setdefault(stmt.target.id, ann)
        self.classes[node.name] = info

    def _init_attr_types(self, init: ast.FunctionDef, out: dict[str, str]) -> None:
        """``self.x = <annotated param | Ctor(...)>`` → attribute types."""
        annots: dict[str, str] = {}
        for arg in list(init.args.args) + list(init.args.kwonlyargs):
            if arg.annotation is not None:
                ann = self._annotation(arg.annotation)
                if ann:
                    annots[arg.arg] = ann
        for stmt in ast.walk(init):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                ann = self._annotation(stmt.annotation)
                if (
                    ann
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.setdefault(target.attr, ann)
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(value, ast.Name) and value.id in annots:
                out.setdefault(target.attr, annots[value.id])
            elif isinstance(value, ast.Call):
                ctor = self._dotted(value.func)
                if ctor:
                    out.setdefault(target.attr, ctor)

    # -- name resolution helpers ---------------------------------------

    def _dotted(self, node: ast.expr) -> str | None:
        """A base-class / annotation expression as a dotted name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[X], list[X] → X
            return self._dotted(node.value)
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id)
        if head is None:
            # Locally defined or builtin: qualify with the module so the
            # project index can find local classes; leave bare otherwise.
            head = node.id
            if self.module_name and not parts:
                return f"{self.module_name}.{head}"
        parts.append(head)
        return ".".join(reversed(parts))

    def _annotation(self, node: ast.expr) -> str | None:
        return self._dotted(node)

    # -- functions -----------------------------------------------------

    def _lower_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        qual: str,
        class_name: str | None,
    ) -> str:
        fid = f"{self.modkey}::{qual}"
        fn = _FunctionLowering(self, fid, qual, class_name)
        fn.run(node)
        return fid


class _FunctionLowering:
    """Lower one function body to its op list (nested defs recurse)."""

    def __init__(
        self, mod: _ModuleLowering, fid: str, qual: str, class_name: str | None
    ) -> None:
        self.mod = mod
        self.fid = fid
        self.qual = qual
        self.class_name = class_name
        self.ops: list[Op] = []
        self._lambda_counter = 0

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        params: list[str] = []
        param_types: dict[str, str] = {}
        a = node.args
        for arg in list(a.posonlyargs) + list(a.args) + list(a.kwonlyargs):
            params.append(arg.arg)
            if arg.annotation is not None:
                ann = self.mod._annotation(arg.annotation)
                if ann:
                    param_types[arg.arg] = ann
        if isinstance(node, ast.Lambda):
            self.ops.append(["ret", self.conv(node.body), node.lineno, node.col_offset])
            name = f"<lambda:L{node.lineno}>"
            line = node.lineno
        else:
            self.stmts(node.body)
            name = node.name
            line = node.lineno
        self.mod.functions[self.fid] = {
            "name": name,
            "qual": self.qual,
            "line": line,
            "class": self.class_name,
            "params": params,
            "param_types": param_types,
            "ops": self.ops,
        }

    # -- statements ----------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value = self.conv(node.value)
            for target in node.targets:
                self.assign_target(target, value, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign_target(node.target, self.conv(node.value), node.lineno)
        elif isinstance(node, ast.AugAssign):
            value = self.conv(node.value)
            target = self.conv_target_for_mutation(node.target)
            kind = f"aug:{type(node.op).__name__}"
            self.ops.append(
                ["mutate", target, value, kind, node.lineno, node.col_offset]
            )
        elif isinstance(node, ast.Expr):
            self.ops.append(["eval", self.conv(node.value), node.lineno])
        elif isinstance(node, ast.Return):
            d = self.conv(node.value) if node.value is not None else ["const"]
            self.ops.append(["ret", d, node.lineno, node.col_offset])
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            it = self.conv(node.iter)
            self.assign_target(node.target, ["elem", it], node.lineno)
            self.stmts(node.body)
            self.stmts(node.orelse)
        elif isinstance(node, ast.While):
            self.ops.append(["eval", self.conv(node.test), node.lineno])
            self.stmts(node.body)
            self.stmts(node.orelse)
        elif isinstance(node, ast.If):
            self.ops.append(
                [
                    "if",
                    self.conv(node.test),
                    self.block(node.body),
                    self.block(node.orelse),
                    node.lineno,
                ]
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            items: list[list] = []
            for item in node.items:
                var: str | None = None
                if isinstance(item.optional_vars, ast.Name):
                    var = item.optional_vars.id
                elif item.optional_vars is not None:
                    # Tuple/attribute targets: keep the v1 binding, no var.
                    self.assign_target(item.optional_vars, ["const"], node.lineno)
                items.append([self.conv(item.context_expr), var])
            self.ops.append(["with", items, self.block(node.body), node.lineno])
        elif isinstance(node, ast.Try):
            handlers: list[list] = []
            for handler in node.handlers:
                hops: list[Op] = []
                if handler.name:
                    hops.append(["bind", handler.name, ["const"], handler.lineno])
                hops.extend(self.block(handler.body))
                handlers.append([handler.name, hops])
            self.ops.append(
                [
                    "try",
                    self.block(node.body),
                    handlers,
                    self.block(node.orelse),
                    self.block(node.finalbody),
                    node.lineno,
                ]
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fid = self.mod._lower_function(
                node, qual=f"{self.qual}.<locals>.{node.name}", class_name=self.class_name
            )
            self.ops.append(["defl", node.name, fid, node.lineno])
        elif isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                self.ops.append(["eval", self.conv(dec), node.lineno])
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.ops.append(["kill", target.id])
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    self.ops.append(
                        [
                            "mutate",
                            self.conv_target_for_mutation(target),
                            None,
                            "del",
                            node.lineno,
                            node.col_offset,
                        ]
                    )
        elif isinstance(node, ast.Raise):
            exc = self.conv(node.exc) if node.exc is not None else None
            self.ops.append(["raise", exc, node.lineno])
        elif isinstance(node, ast.Assert):
            self.ops.append(["eval", self.conv(node.test), node.lineno])
        # Import/Global/Nonlocal/Pass/Break/Continue: no dataflow.

    def block(self, body: Sequence[ast.stmt]) -> list[Op]:
        """Lower ``body`` into its own op list (for block ops)."""
        saved = self.ops
        self.ops = []
        try:
            self.stmts(body)
            return self.ops
        finally:
            self.ops = saved

    def assign_target(self, target: ast.expr, value: Desc, line: int) -> None:
        if isinstance(target, ast.Name):
            self.ops.append(["bind", target.id, value, line])
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, ["slice", value], line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, ["elem", value], line)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self.ops.append(
                [
                    "mutate",
                    self.conv_target_for_mutation(target),
                    value,
                    "store",
                    target.lineno,
                    target.col_offset,
                ]
            )

    def conv_target_for_mutation(self, target: ast.expr) -> Desc:
        """Store targets keep their full chain for substrate detection."""
        if isinstance(target, ast.Subscript):
            return ["elem", self.conv(target.value)]
        if isinstance(target, ast.Attribute):
            return ["attr", self.conv(target.value), target.attr]
        return self.conv(target)

    # -- expressions ---------------------------------------------------

    def conv(self, node: ast.expr) -> Desc:
        if isinstance(node, ast.Name):
            return ["name", node.id]
        if isinstance(node, ast.Attribute):
            return ["attr", self.conv(node.value), node.attr]
        if isinstance(node, ast.Subscript):
            base = self.conv(node.value)
            if isinstance(node.slice, ast.Slice):
                return ["slice", base]
            return ["elem", base]
        if isinstance(node, ast.Call):
            return self.conv_call(node)
        if isinstance(node, ast.Lambda):
            self._lambda_counter += 1
            fid = self.mod._lower_function(
                node,
                qual=f"{self.qual}.<locals>.<lambda:L{node.lineno}#{self._lambda_counter}>",
                class_name=self.class_name,
            )
            return ["fnref", fid]
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return ["make", [self.conv_item(e) for e in node.elts]]
        if isinstance(node, ast.Dict):
            items = [self.conv(k) for k in node.keys if k is not None]
            items += [self.conv_item(v) for v in node.values]
            return ["make", items]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            gens = []
            for gen in node.generators:
                names = _target_names(gen.target)
                gens.append([names, self.conv(gen.iter)])
                for cond in gen.ifs:
                    gens.append([[], self.conv(cond)])
            if isinstance(node, ast.DictComp):
                elts = [self.conv(node.key), self.conv(node.value)]
            else:
                elts = [self.conv(node.elt)]
            return ["comp", gens, elts]
        if isinstance(node, ast.BoolOp):
            return ["union", [self.conv(v) for v in node.values]]
        if isinstance(node, ast.IfExp):
            return [
                "union",
                [["seq", [self.conv(node.test)]], self.conv(node.body), self.conv(node.orelse)],
            ]
        if isinstance(node, ast.BinOp):
            return [
                "bin",
                type(node.op).__name__,
                self.conv(node.left),
                self.conv(node.right),
                node.lineno,
                node.col_offset,
            ]
        if isinstance(node, ast.UnaryOp):
            return ["seq", [self.conv(node.operand)]]
        if isinstance(node, ast.Compare):
            return [
                "cmp",
                [type(op).__name__ for op in node.ops],
                [self.conv(node.left)] + [self.conv(c) for c in node.comparators],
                node.lineno,
                node.col_offset,
            ]
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            return ["walrus", node.target.id, self.conv(node.value)]
        if isinstance(node, ast.Starred):
            return ["spread", self.conv(node.value)]
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.conv(node.value) if node.value is not None else ["const"]
        if isinstance(node, ast.Yield):
            return self.conv(node.value) if node.value is not None else ["const"]
        if isinstance(node, ast.JoinedStr):
            return ["seq", [self.conv(v) for v in node.values]]
        if isinstance(node, ast.FormattedValue):
            return ["seq", [self.conv(node.value)]]
        return ["const"]

    def conv_item(self, node: ast.expr) -> Desc:
        if isinstance(node, ast.Starred):
            return ["spread", self.conv(node.value)]
        return self.conv(node)

    def conv_call(self, node: ast.Call) -> Desc:
        func = node.func
        if isinstance(func, ast.Name):
            f: Desc = ["ref", func.id]
        elif isinstance(func, ast.Attribute):
            f = ["meth", self.conv(func.value), func.attr]
        else:
            f = ["desc", self.conv(func)]
        args = [self.conv_item(a) for a in node.args]
        kwargs = [[kw.arg or "**", self.conv(kw.value)] for kw in node.keywords]
        return ["call", f, args, kwargs, node.lineno, node.col_offset]


def _target_names(target: ast.expr) -> list[str]:
    """Every plain name bound by a (possibly nested) loop target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    return []
