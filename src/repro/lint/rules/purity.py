"""Purity/picklability rules for user-supplied callbacks.

Task specs (``JobSpec`` callbacks, payloads handed to the parallel
executor) cross a process boundary under ``PIC_WORKERS>1``.  Closures
and lambdas cannot be pickled, so :mod:`repro.parallel.executor`
silently falls back to in-process execution — correct but sequential.
And because the program object is pickled *to* the worker, instance
state mutated inside a task-side callback never comes back.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.model import Finding
from repro.lint.module import LintModule, bare_name, tail_name
from repro.lint.rules import Rule

#: Executor-like receivers for ``.map``/``.submit``.
_EXECUTOR_RECEIVER = re.compile(r"executor|pool", re.IGNORECASE)
_EXECUTOR_METHODS = frozenset({"map", "submit"})


class TaskSpecPicklabilityRule(Rule):
    """PIC101: no lambdas/nested functions as parallel task specs."""

    rule_id = "PIC101"
    summary = (
        "lambda/nested function as a task spec cannot be pickled; "
        "the pool silently runs it in-process"
    )

    def check(self, module: LintModule) -> Iterator[Finding]:
        nested = _nested_function_names(module)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            for value in self._task_spec_args(module, node):
                if isinstance(value, ast.Lambda):
                    yield self._finding(module, value, "a lambda")
                elif isinstance(value, ast.Name) and value.id in nested:
                    yield self._finding(
                        module, value, f"nested function {value.id!r}"
                    )

    def _task_spec_args(
        self, module: LintModule, call: ast.Call
    ) -> list[ast.expr]:
        """Argument expressions of ``call`` that act as task specs."""
        if tail_name(call.func) == "JobSpec":
            return [*call.args, *(kw.value for kw in call.keywords)]
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _EXECUTOR_METHODS
        ):
            base = call.func.value
            base_name = bare_name(base)
            resolved = module.resolve(base)
            if (base_name is not None and _EXECUTOR_RECEIVER.search(base_name)) or (
                resolved is not None and resolved.startswith("repro.parallel")
            ):
                return list(call.args[:1])
        return []

    def _finding(self, module: LintModule, node: ast.AST, what: str) -> Finding:
        return self.finding(
            module,
            node,
            f"{what} used as a task spec cannot cross the process boundary; "
            "repro.parallel falls back to in-process execution. Use a "
            "module-level function, or suppress if the serial fallback is "
            "intended.",
        )


def _nested_function_names(module: LintModule) -> frozenset[str]:
    """Names of functions defined inside another function."""
    names = set()
    for node in module.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        parent = module.parent(node)
        while parent is not None and not isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)
        ):
            parent = module.parent(parent)
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return frozenset(names)


#: Callbacks that execute inside a (possibly out-of-process) task.
TASK_SIDE_CALLBACKS = frozenset(
    {"map", "batch_map", "reduce", "batch_reduce", "combine", "combine_batch", "merge_element"}
)
#: Callbacks that run in the driver but must still be I/O-free: they are
#: re-invoked on replay and their effects are not part of any metric.
DRIVER_SIDE_CALLBACKS = frozenset(
    {
        "build_model",
        "converged",
        "be_converged",
        "topoff_converged",
        "partition",
        "merge",
        "initial_model",
        "owned_model_records",
    }
)

_IO_BUILTINS = frozenset({"open", "input", "print"})
_IO_PREFIXES = (
    "os.environ",
    "os.putenv",
    "os.system",
    "os.popen",
    "os.remove",
    "os.unlink",
    "os.rename",
    "os.makedirs",
    "os.mkdir",
    "subprocess.",
    "shutil.",
    "socket.",
    "sys.stdout",
    "sys.stderr",
    "logging.",
)


class CallbackPurityRule(Rule):
    """PIC102: PICProgram callbacks must be pure (no I/O, no hidden state)."""

    rule_id = "PIC102"
    summary = "I/O or state mutation inside a PICProgram callback body"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for cls in _program_classes(module):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name not in TASK_SIDE_CALLBACKS | DRIVER_SIDE_CALLBACKS:
                    continue
                yield from self._check_callback(
                    module, method, task_side=name in TASK_SIDE_CALLBACKS
                )

    def _check_callback(
        self,
        module: LintModule,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        task_side: bool,
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.finding(
                    module,
                    node,
                    f"'{'global' if isinstance(node, ast.Global) else 'nonlocal'}' "
                    f"inside {method.name}(): callbacks must not write state "
                    "outside the task; emit records through the context instead.",
                )
            elif isinstance(node, ast.Call):
                name = bare_name(node.func)
                resolved = module.resolve(node.func)
                if name in _IO_BUILTINS:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() inside {method.name}(): callbacks run inside "
                        "the framework loop (possibly in a worker process) and "
                        "must not perform I/O.",
                    )
                elif resolved is not None and resolved.startswith(_IO_PREFIXES):
                    yield self.finding(
                        module,
                        node,
                        f"{resolved}(...) inside {method.name}(): callbacks must "
                        "not touch the host environment or perform I/O.",
                    )
            elif task_side and isinstance(
                node, (ast.Assign, ast.AugAssign, ast.AnnAssign)
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if _roots_at_self(target):
                        yield self.finding(
                            module,
                            target,
                            f"assignment to instance state inside {method.name}() "
                            "is lost when the task runs in a worker process; "
                            "return results via emitted records or the model.",
                        )


def _roots_at_self(target: ast.expr) -> bool:
    """True for ``self.x``, ``self.x[k]``, ``self.x.y`` assignment targets."""
    node = target
    saw_attribute = False
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            saw_attribute = True
        node = node.value
    return saw_attribute and isinstance(node, ast.Name) and node.id == "self"


def _program_classes(module: LintModule) -> list[ast.ClassDef]:
    """Classes that (transitively, within this module) extend PICProgram."""
    classes = {
        node.name: node
        for node in module.nodes
        if isinstance(node, ast.ClassDef)
    }
    cache: dict[str, bool] = {}

    def is_program(name: str, seen: frozenset[str]) -> bool:
        if name in cache:
            return cache[name]
        if name in seen or name not in classes:
            return False
        bases = [tail_name(b) for b in classes[name].bases]
        result = "PICProgram" in bases or any(
            b is not None and is_program(b, seen | {name}) for b in bases
        )
        cache[name] = result
        return result

    return [cls for name, cls in classes.items() if is_program(name, frozenset())]
