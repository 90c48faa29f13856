"""Import hygiene over ``src/repro``, with the standard library only.

CI runs ruff's pyflakes subset (F401 unused import, F811 redefinition);
ruff is not installed in every environment the suite runs in, so the
checks that bit-rot fastest during refactors are scripted here with
``ast``:

* **unused imports** — a name bound by ``import``/``from ... import``
  that the module never reads.  A name listed in ``__all__`` is a
  re-export; ``__init__.py`` files re-export by design (the same
  exemption pyproject.toml gives ruff); a name imported under
  ``if TYPE_CHECKING:`` counts as read when an annotation mentions it,
  as a name or inside a string annotation.
* **duplicate imports** — the same name bound twice by imports in one
  scope.  ``if TYPE_CHECKING: ... else: ...`` arms and ``try``/``except``
  fallbacks are alternative bindings, not duplicates.
* **unused private names** — a module-level ``_name`` (assignment, def
  or class) bound once and mentioned nowhere else under ``src/``,
  ``tests/``, ``benchmarks/`` or ``examples/``: what moving a helper
  leaves behind.  Any mention of the word counts as a use, so a
  monkeypatch target spelled in a string does too.
* **import order** (ruff I001 as ``[tool.ruff.lint.isort]`` sets it) —
  within each run of import statements: ``__future__``, standard
  library, third party, first party (``repro``/``benchmarks``/``tests``),
  relative; a blank line between sections and none inside one; plain
  ``import`` before ``from`` within a section, each sorted by module.
  ``__init__.py`` files are exempt, as in pyproject.toml.
* **complete annotations** (mypy's ``disallow_untyped_defs`` +
  ``disallow_incomplete_defs``) — every ``def`` under the packages
  pyproject.toml puts under strict mypy annotates each parameter but
  ``self``/``cls``, and its return.
* **declared dependencies** — the third-party top-level modules imported
  anywhere under ``src/repro`` (at module level or inside a function)
  are exactly ``[project].dependencies`` of pyproject.toml: nothing the
  package imports goes undeclared, nothing declared goes unused.
* **the linter stands apart** — no module outside ``repro/lint`` imports
  ``repro.lint``, and no ``repro/lint`` module imports the simulator
  (any other ``repro`` module), at module level or inside a function;
  the rule examples' source strings are data, not imports.  So a
  simulator process never loads the linter, and the engine's lazily
  imported analysis never drags the simulator in.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

Scope = ast.Module | ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: ``known-first-party`` of ``[tool.ruff.lint.isort]``.
FIRST_PARTY = {"repro", "benchmarks", "tests"}
#: Packages with ``disallow_untyped_defs`` in ``[[tool.mypy.overrides]]``.
STRICT_PACKAGES = ("util", "parallel", "cluster", "pic", "mapreduce", "yarn")


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The local names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)):
                names |= {
                    e.value for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
    return names


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module loads, including those inside string
    annotations (``-> "ColumnBatch"``)."""
    read: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return read


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every import binding the module never reads."""
    used = _names_read(tree) | _exported(tree)
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
        if name not in used
    ]


def _imports_in_scope(body: list[ast.stmt]) -> list[list[tuple[int, str]]]:
    """Import bindings of one scope, grouped into alternatives: the
    statements of an ``if``/``try`` arm form their own group per arm,
    nested scopes are skipped (they are checked on their own)."""
    here: list[tuple[int, str]] = []
    groups = [here]
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            here.extend((stmt.lineno, name) for name in _bound_names(stmt))
        elif isinstance(stmt, ast.If):
            groups += _imports_in_scope(stmt.body) + _imports_in_scope(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            groups += _imports_in_scope(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                groups += _imports_in_scope(handler.body)
        elif isinstance(stmt, (ast.With, ast.For, ast.While)):
            here.extend(
                binding
                for group in _imports_in_scope(stmt.body)
                for binding in group
            )
    return groups


def duplicate_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every import that re-binds a name an earlier
    import of the same scope (and the same branch) already bound."""
    found: list[tuple[int, str]] = []
    scopes: list[Scope] = [tree] + [
        node for node in ast.walk(tree) if isinstance(node, _SCOPES)
    ]
    for scope in scopes:
        groups = _imports_in_scope(scope.body)
        unconditional = {name for _line, name in groups[0]}
        for index, group in enumerate(groups):
            seen: set[str] = set()
            for line, name in group:
                if name in seen or (index > 0 and name in unconditional):
                    found.append((line, name))
                seen.add(name)
    return found


def private_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every ``_name`` the module body binds exactly once."""
    bound: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    times = Counter(name for _line, name in bound)
    return [
        (line, name)
        for line, name in bound
        if name.startswith("_") and not name.startswith("__") and times[name] == 1
    ]


def _import_key(node: ast.Import | ast.ImportFrom) -> tuple[int, bool, str]:
    """(section, ``from`` after ``import``, module) — isort's order."""
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
    else:
        module = node.names[0].name
    top = module.split(".")[0]
    section = (
        0 if module == "__future__"
        else 4 if not top
        else 1 if top in sys.stdlib_module_names
        else 3 if top in FIRST_PARTY
        else 2
    )
    return section, isinstance(node, ast.ImportFrom), module.lower()


def misordered_imports(source: str) -> list[tuple[int, str]]:
    """(line, what) for every import statement out of isort's order
    within its run of consecutive import statements."""
    lines = source.splitlines()
    found: list[tuple[int, str]] = []
    for scope in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(scope, field, None)
            if not isinstance(body, list):
                continue
            for prev, node in zip(body, body[1:]):
                if not (
                    isinstance(prev, (ast.Import, ast.ImportFrom))
                    and isinstance(node, (ast.Import, ast.ImportFrom))
                ):
                    continue
                before, after = _import_key(prev), _import_key(node)
                # Comment lines between two imports belong to the second.
                gap = not all(lines[prev.end_lineno or prev.lineno : node.lineno - 1])
                if after < before:
                    found.append((node.lineno, f"{after[2]!r} sorts before {before[2]!r}"))
                elif gap != (after[0] != before[0]):
                    found.append((node.lineno, "one blank line between sections, none inside"))
    return found


def incomplete_defs(source: str) -> list[tuple[int, str]]:
    """(line, what) for every ``def`` with an unannotated parameter
    (``self``/``cls`` of a method aside) or no return annotation."""
    found: list[tuple[int, str]] = []
    for owner in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = node.args
            params = spec.posonlyargs + spec.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if isinstance(owner, ast.ClassDef) and not static:
                params = params[1:]
            params += spec.kwonlyargs + [a for a in (spec.vararg, spec.kwarg) if a]
            found += [
                (node.lineno, f"{node.name}({p.arg}) has no annotation")
                for p in params
                if p.annotation is None
            ]
            if node.returns is None:
                found.append((node.lineno, f"{node.name} has no return annotation"))
    return found


def third_party_imports(tree: ast.Module) -> set[str]:
    """Top-level modules of every absolute import in ``tree`` that are
    neither standard library nor first party, wherever the import sits."""
    modules: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            modules.append(node.module)
    return {
        top for top in (module.split(".")[0] for module in modules)
        if top not in sys.stdlib_module_names and top not in FIRST_PARTY
    }


def repro_imports(tree: ast.Module, package: str) -> list[tuple[int, str]]:
    """(line, module) of every import of a ``repro`` module in ``tree``,
    wherever it sits; ``from repro import x`` counts as ``repro.x`` and a
    relative import is resolved against ``package``."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            modules = (
                [f"{base}.{alias.name}" for alias in node.names]
                if base == "repro" else [base]
            )
        else:
            continue
        found += [
            (node.lineno, module) for module in modules
            if module == "repro" or module.startswith("repro.")
        ]
    return found


def _in_linter(module: str) -> bool:
    return module == "repro.lint" or module.startswith("repro.lint.")


def _layering_offenders(inside: bool) -> list[str]:
    """Imports that cross the linter's boundary from modules inside it
    (``inside``) or outside it."""
    found: list[str] = []
    for path in MODULES:
        relative = path.relative_to(SRC)
        if (relative.parts[0] == "lint") != inside:
            continue
        package = ".".join(("repro",) + relative.parts[:-1])
        found += [
            f"{relative}:{line} imports {module}"
            for line, module in repro_imports(ast.parse(path.read_text()), package)
            if _in_linter(module) != inside
        ]
    return found


def _offenders(
    check: Callable[[str], list[tuple[int, str]]], modules: list[Path]
) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{line} {what}"
        for path in modules
        for line, what in check(path.read_text())
    ]


def test_import_blocks_follow_isort_sections() -> None:
    modules = [path for path in MODULES if path.name != "__init__.py"]
    assert not _offenders(misordered_imports, modules)


def test_strict_packages_annotate_every_def() -> None:
    modules = [
        path for path in MODULES if path.relative_to(SRC).parts[0] in STRICT_PACKAGES
    ]
    assert not _offenders(incomplete_defs, modules)


def test_private_module_names_are_mentioned_somewhere_else() -> None:
    mentions: Counter[str] = Counter()
    for tree in ("src", "tests", "benchmarks", "examples"):
        for path in (REPO / tree).rglob("*.py"):
            mentions.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    unused = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in MODULES
        for line, name in private_names(ast.parse(path.read_text()))
        if mentions[name] == 1
    ]
    assert not unused, "private names nothing refers to: " + "; ".join(unused)


def test_declared_dependencies_are_imported() -> None:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()
        for requirement in project["dependencies"]
    }
    imported: set[str] = set()
    for path in MODULES:
        imported |= third_party_imports(ast.parse(path.read_text()))
    assert imported == declared


def test_only_the_linter_imports_the_linter() -> None:
    assert not _layering_offenders(inside=False)


def test_the_linter_imports_no_simulator_module() -> None:
    assert not _layering_offenders(inside=True)


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_imports_are_used_and_unique(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = [f"duplicate import of {n!r} (line {ln})" for ln, n in duplicate_imports(tree)]
    if path.name != "__init__.py":
        problems += [f"unused import {n!r} (line {ln})" for ln, n in unused_imports(tree)]
    assert not problems, f"{path.relative_to(SRC)}: " + "; ".join(problems)


class TestTheCheckItself:
    @staticmethod
    def _check(source: str) -> tuple[list[str], list[str]]:
        tree = ast.parse(source)
        return (
            [name for _line, name in unused_imports(tree)],
            [name for _line, name in duplicate_imports(tree)],
        )

    def test_flags_unused_and_duplicate(self) -> None:
        unused, duplicate = self._check(
            "import os\nimport sys\nimport sys\nfrom a import b as c\nprint(sys.argv)\n"
        )
        assert unused == ["os", "c"]
        assert duplicate == ["sys"]

    def test_all_and_annotations_count_as_uses(self) -> None:
        unused, duplicate = self._check(
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "from m import exported, Quoted\n"
            "if TYPE_CHECKING:\n"
            "    from n import Hinted, Idle\n"
            "__all__ = ['exported']\n"
            "def f(x: Hinted) -> 'list[Quoted]': ...\n"
        )
        assert unused == ["Idle"]
        assert duplicate == []

    def test_branches_are_alternatives_scopes_are_separate(self) -> None:
        _unused, duplicate = self._check(
            "try:\n    import fast as impl\nexcept ImportError:\n    import slow as impl\n"
            "def f():\n    import impl\n    import impl\n"
            "import json\nif impl:\n    import json\n"
        )
        assert duplicate == ["json", "impl"]

    def test_private_names_bound_once_at_module_level(self) -> None:
        tree = ast.parse(
            "_A = 1\n_B: int = 2\n_B = 3\nPUBLIC = 4\n__all__ = []\n"
            "def _f():\n    _local = 1\nclass _C:\n    _attr = 1\n"
        )
        assert [name for _line, name in private_names(tree)] == ["_A", "_f", "_C"]

    def test_import_order_sections_gaps_and_modules(self) -> None:
        clean = (
            "from __future__ import annotations\n\nimport os\nfrom typing import Any\n\n"
            "import numpy as np\n\n# why this one is a leaf import\nfrom repro.a import b\n"
            "from repro.c import (\n    d,\n)\n\nfrom . import e\n"
            "def f():\n    from repro.z import y\n    import os\n"
        )
        assert [line for line, _what in misordered_imports(clean)] == [17]
        messy = "import numpy\nimport os\n\nimport ast\nfrom repro.b import x\nimport repro.a\n"
        assert [line for line, _what in misordered_imports(messy)] == [2, 4, 5, 6]

    def test_third_party_imports_at_any_depth(self) -> None:
        tree = ast.parse(
            "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
            "from repro.a import b\nfrom . import c\n"
            "def f():\n    from scipy.optimize import linear_sum_assignment\n"
        )
        assert third_party_imports(tree) == {"numpy", "scipy"}

    def test_repro_imports_at_any_depth_and_relative(self) -> None:
        tree = ast.parse(
            "import os, repro.cluster\nfrom repro import lint\n"
            "from repro.lint.engine import run_lint\n"
            "EXAMPLE = 'from repro.pic import api'\n"
            "def f():\n    from ..pic import api\n    from . import rules\n"
        )
        assert repro_imports(tree, "repro.lint") == [
            (1, "repro.cluster"), (2, "repro.lint"), (3, "repro.lint.engine"),
            (6, "repro.pic"), (7, "repro.lint"),
        ]

    def test_unannotated_parameters_and_returns(self) -> None:
        found = incomplete_defs(
            "def f(a, b: int = 0, *args, **kw: int) -> None: ...\n"
            "class C:\n"
            "    def __init__(self, x: int): ...\n"
            "    @staticmethod\n"
            "    def s(x) -> None:\n"
            "        def inner(self) -> int: ...\n"
            "    @classmethod\n"
            "    def c(cls, *, k: int) -> None: ...\n"
        )
        assert [what.split(" has")[0] for _line, what in found] == [
            "f(a)", "f(args)", "__init__", "s(x)", "inner(self)",
        ]
