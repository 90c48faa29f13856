"""Parsed-module wrapper shared by every rule.

A :class:`LintModule` owns the AST plus the derived maps rules need:
the node list and parent/child links (``ast`` keeps none), an
import-alias table for resolving dotted call names back to canonical
module paths, and scope-restricted walking (so per-function name
analysis does not leak across nested functions).  The tree is walked
once, at construction; rules, the alias tables and the IR lowering
iterate :attr:`LintModule.nodes` instead of calling ``ast.walk`` again.

The file's bytes are loaded exactly once: :meth:`LintModule.from_bytes`
decodes them (tolerating a UTF-8 BOM, which ``ast.parse`` would reject
as a stray ``U+FEFF``) and the decoded string is shared between the
parser and the tokenizer — the lazy :attr:`suppressions` property runs
the ``# pic: noqa`` scan over the same string instead of re-reading
the file.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.model import Finding, LintParseError

#: Scope-introducing statement nodes (lambdas carry no statements and
#: class bodies are their own namespace).
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def decode_source(path: str, data: bytes) -> str:
    """Decode source bytes once, stripping a UTF-8 BOM if present."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise LintParseError(path, f"cannot decode: {exc}")


class LintModule:
    """One source file, parsed and indexed for rule checks."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        if source.startswith("\ufeff"):
            source = source[1:]
        self.source = source
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            raise LintParseError(path, f"syntax error: {exc.msg} (line {exc.lineno})")
        #: Every node, in ``ast.walk`` (breadth-first) order.
        self.nodes: list[ast.AST] = [self.tree]
        self.children: dict[ast.AST, list[ast.AST]] = {}
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in self.nodes:  # grows as it is read: that is the BFS
            kids = self.children[parent] = list(ast.iter_child_nodes(parent))
            for child in kids:
                self.parents[child] = parent
            self.nodes.extend(kids)
        self.aliases = import_aliases(self.nodes)
        self._suppressions: dict[int, frozenset[str] | None] | None = None

    @classmethod
    def from_bytes(cls, path: str, data: bytes) -> "LintModule":
        """Parse from raw bytes — the single read the engine performs."""
        return cls(path, decode_source(path, data))

    @property
    def suppressions(self) -> dict[int, frozenset[str] | None]:
        """``# pic: noqa`` map, tokenized lazily from the shared source."""
        if self._suppressions is None:
            from repro.lint.noqa import suppressions

            self._suppressions = suppressions(self.path, self.source)
        return self._suppressions

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self.parents.get(node)

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an attribute chain rooted at an import.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when the
        module did ``import numpy as np``; names that are not rooted at
        an imported binding resolve to ``None`` (so local variables that
        shadow module names cannot false-positive).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def walk_scope(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested scope bodies.

        Comprehensions are *not* treated as separate scopes: their
        iterable expressions belong, for our ordering analysis, to the
        enclosing function.
        """
        if isinstance(scope, _SCOPE_NODES):
            stack: list[ast.AST] = list(scope.body)
        else:
            stack = list(self.children[scope])
        while stack:
            node = stack.pop()
            yield node
            # A nested scope node is yielded itself, but not its body.
            if not isinstance(node, _SCOPE_NODES):
                stack.extend(self.children[node])

    def iter_scopes(self) -> Iterator[ast.AST]:
        """Yield the module and every (possibly nested) function scope."""
        yield self.tree
        for node in self.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        )


def import_aliases(
    nodes: Iterable[ast.AST], module_name: str | None = None, is_package: bool = False
) -> dict[str, str]:
    """Map local names to the canonical dotted names they import.

    Relative imports resolve against ``module_name`` (the IR's alias
    table); without one (rule checks) they bind nothing.
    """
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname is not None:
                    aliases[a.asname] = a.name
                else:
                    aliases[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module_name, is_package)
            if base is None:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{base}.{a.name}" if base else a.name
    return aliases


def _from_base(
    node: ast.ImportFrom, module_name: str | None, is_package: bool
) -> str | None:
    """The dotted package a ``from X import`` pulls names out of."""
    if node.level == 0:
        return node.module
    if module_name is None:
        return None
    parts = module_name.split(".")
    # level=1 in a package __init__ refers to the package itself.
    up = node.level - 1 if is_package else node.level
    if up > len(parts):
        return None
    base = parts[: len(parts) - up]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def bare_name(node: ast.expr) -> str | None:
    """The identifier of a plain ``Name`` expression, else ``None``."""
    return node.id if isinstance(node, ast.Name) else None


def tail_name(node: ast.expr) -> str | None:
    """The final identifier of a name or attribute chain (``a.b.C`` → ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return bare_name(node)
