"""Determinism rules: wall-clock reads, global RNG, set-iteration order.

The simulation must replay bit-identically for any worker count and any
host (tests/integration/test_determinism.py spot-checks this; these
rules enforce it statically).  Time comes only from the event clock
(:class:`repro.cluster.events.Simulation`); randomness only from seeded
generators routed through :mod:`repro.util.rng`; and nothing may depend
on the iteration order of a hash-based set.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.model import Finding
from repro.lint.module import LintModule, bare_name
from repro.lint.rules import Rule

#: Canonical names of host-clock reads: PIC001 reports them, and the
#: unit-taint pass (:mod:`repro.lint.project.units`) seeds them as
#: wall-clock seconds.  Simulated components take time from
#: ``Simulation.now``; host-timing harnesses (the perf ledger and the
#: hotspot sampler) are the deliberate exception and carry
#: ``# pic: noqa: PIC001``.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "timeit.default_timer",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that are fine: constructing seeded
#: generators, not drawing from the hidden global stream.
_SEEDABLE_NUMPY = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


class WallClockRule(Rule):
    """PIC001: simulated code must not read the host clock."""

    rule_id = "PIC001"
    summary = (
        "host clock read (time.time/perf_counter/datetime.now); "
        "use the event clock (Simulation.now)"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the host clock; simulated components must "
                    "take time from the event clock (Simulation.now). "
                    "Host-timing harnesses may suppress with "
                    "'# pic: noqa: PIC001'.",
                )


class UnseededRandomRule(Rule):
    """PIC002: no draws from global (unseeded) RNG state."""

    rule_id = "PIC002"
    summary = (
        "global RNG state (random.* / np.random.*); "
        "route through repro.util.rng or a seeded Generator"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name.startswith("random.") and name != "random.Random":
                yield self.finding(
                    module,
                    node,
                    f"{name}() draws from the process-global random stream; "
                    "use repro.util.rng.as_generator/spawn_rngs so replay is "
                    "deterministic for any worker count.",
                )
            elif name.startswith("numpy.random."):
                attr = name.split(".")[2]
                if attr not in _SEEDABLE_NUMPY:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() uses numpy's hidden global RNG; construct a "
                        "seeded Generator via repro.util.rng instead.",
                    )


#: Wrappers that materialize the (nondeterministic) iteration order.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


class SetIterationOrderRule(Rule):
    """PIC003: never iterate a set where order can reach simulated state."""

    rule_id = "PIC003"
    summary = "iteration over a set/frozenset feeds nondeterministic order; sort first"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for scope in module.iter_scopes():
            set_names = _set_typed_names(module, scope)
            for node in module.walk_scope(scope):
                if not _is_set_expr(node, set_names):
                    continue
                parent = module.parent(node)
                if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
                    yield self._finding(module, node)
                elif isinstance(parent, ast.comprehension) and parent.iter is node:
                    yield self._finding(module, node)
                elif (
                    isinstance(parent, ast.Call)
                    and node in parent.args
                    and bare_name(parent.func) in _ORDER_SENSITIVE_WRAPPERS
                ):
                    yield self._finding(module, node)

    def _finding(self, module: LintModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "iterating a set/frozenset yields hash order, which is not stable "
            "across runs; wrap it in sorted(...) before it can reach flow "
            "scheduling or metric accumulation.",
        )


def _is_set_expr(node: ast.AST, set_names: frozenset[str]) -> bool:
    """True when ``node`` certainly evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and bare_name(node.func) in ("set", "frozenset"):
        return True
    return (
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id in set_names
    )


def _is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return bare_name(target) in ("set", "frozenset") or (
        isinstance(target, ast.Attribute) and target.attr in ("Set", "FrozenSet")
    )


def _set_typed_names(module: LintModule, scope: ast.AST) -> frozenset[str]:
    """Names that are only ever bound to sets within ``scope``.

    Conservative: any rebinding to a non-set value (or any binding whose
    value we cannot classify, e.g. a loop target) drops the name.
    """
    verdict: dict[str, bool] = {}

    def note(name: str, is_set: bool) -> None:
        verdict[name] = verdict.get(name, True) and is_set

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                note(arg.arg, _is_set_annotation(arg.annotation))

    for node in module.walk_scope(scope):
        if isinstance(node, ast.Assign):
            is_set = _is_set_expr(node.value, frozenset())
            for target in node.targets:
                name = bare_name(target)
                if name is not None:
                    note(name, is_set)
        elif isinstance(node, ast.AnnAssign):
            name = bare_name(node.target)
            if name is not None:
                note(name, _is_set_annotation(node.annotation))
        elif isinstance(node, ast.AugAssign):
            name = bare_name(node.target)
            if name is not None:
                note(name, verdict.get(name, False))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for target in ast.walk(node.target):
                name = bare_name(target) if isinstance(target, ast.expr) else None
                if name is not None:
                    note(name, False)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            name = bare_name(node.optional_vars)
            if name is not None:
                note(name, False)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                name = bare_name(target) if isinstance(target, ast.expr) else None
                if name is not None:
                    note(name, False)
    return frozenset(name for name, is_set in verdict.items() if is_set)
