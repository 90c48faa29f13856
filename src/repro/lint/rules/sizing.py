"""Byte-accounting rules.

The paper's Table II / Figure 2 numbers are *serialized* byte counts.
``repro.util.sizing`` implements the wire-format sizing rules and the
``Split``/``SubProblem`` caches carry ``.nbytes``; ``len()`` counts
records or characters and ``sys.getsizeof`` measures CPython object
headers — both silently corrupt the traffic accounting if they reach a
flow payload.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.model import Finding
from repro.lint.module import LintModule, bare_name, tail_name
from repro.lint.rules import Rule


class GetsizeofRule(Rule):
    """PIC201: ``sys.getsizeof`` is never a wire size."""

    rule_id = "PIC201"
    summary = "sys.getsizeof measures CPython headers, not wire bytes; use util.sizing"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in module.nodes:
            if isinstance(node, ast.Call) and module.resolve(node.func) == "sys.getsizeof":
                yield self.finding(
                    module,
                    node,
                    "sys.getsizeof() is dominated by CPython object headers; "
                    "size records with repro.util.sizing.sizeof_records()/"
                    "sizeof_value() or a cached .nbytes.",
                )


#: Calls whose byte-count parameter is positional: name -> arg index.
_BYTE_POSITIONAL = {"start_flow": 2, "transfer": 2, "move": 2, "transfer_time": 2}
#: Keyword names that always carry serialized byte counts.
_BYTE_KWARGS = frozenset({"nbytes", "size_bytes"})
#: Constructors whose ``size`` keyword is a byte count.
_BYTE_SIZE_CTORS = frozenset({"Flow"})


class RawLenByteCountRule(Rule):
    """PIC202: ``len()`` where a serialized byte count is required."""

    rule_id = "PIC202"
    summary = "len()/getsizeof passed as a flow byte count; use sizeof_records/.nbytes"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            fname = tail_name(node.func)
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                if kw.arg in _BYTE_KWARGS or (
                    fname in _BYTE_SIZE_CTORS and kw.arg == "size"
                ):
                    if self._is_raw_size(module, kw.value):
                        yield self._finding(module, kw.value, f"{fname}({kw.arg}=...)")
            if fname in _BYTE_POSITIONAL:
                idx = _BYTE_POSITIONAL[fname]
                if len(node.args) > idx and self._is_raw_size(module, node.args[idx]):
                    yield self._finding(
                        module, node.args[idx], f"byte argument of {fname}()"
                    )

    @staticmethod
    def _is_raw_size(module: LintModule, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        return (
            bare_name(value.func) == "len"
            or module.resolve(value.func) == "sys.getsizeof"
        )

    def _finding(self, module: LintModule, node: ast.AST, where: str) -> Finding:
        return self.finding(
            module,
            node,
            f"raw len()/getsizeof used for the {where}: that counts records or "
            "characters, not serialized bytes. Use repro.util.sizing."
            "sizeof_records()/sizeof_value() or the cached .nbytes.",
        )
