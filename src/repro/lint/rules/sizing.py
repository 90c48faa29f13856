"""Byte-accounting rule PIC201 (PIC202, a record count used as a byte
count, is a sink of the unit-taint pass: :mod:`repro.lint.rules.units`).

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
from repro.lint.module import LintModule
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
