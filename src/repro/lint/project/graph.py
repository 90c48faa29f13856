"""Project-wide indexes over module IRs.

Builds the module graph (path ↔ dotted module name), the fully
qualified class and function tables, resolves base classes (chasing
re-exports through package ``__init__`` alias tables), and answers the
dispatch questions the summary propagation needs:

* which concrete methods can ``program.partition(...)`` reach, given
  ``program: PICProgram``? (nearest inherited definition plus every
  subclass override);
* which classes are ``PICProgram`` programs at all;
* what type does ``self.cluster`` have inside ``JobRunner``?
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

#: Simulator-substrate classes whose internals event handlers must not
#: reach into (PIC402).  Matched by class-name tail so fixtures without
#: the real imports still participate.
SUBSTRATE_CLASS_TAILS = frozenset(
    {
        "Simulation",
        "FlowNetwork",
        "Cluster",
        "TrafficMeter",
        "DistributedFileSystem",
        "Namenode",
        "SlotScheduler",
        "ResourceManager",
    }
)

#: Conventional receiver names that denote substrate objects when no
#: type information is available (``sim.schedule``, ``cluster._x``...).
SUBSTRATE_NAMES = frozenset(
    {"sim", "simulation", "cluster", "network", "net", "meter", "dfs", "namenode"}
)

#: Attribute names of the flow network's partition-maintenance state —
#: the link union-find, component table, dirty-set and link adjacency —
#: and of its standing route-class table (class ids, paths, counts and
#: the link → class incidence).  Writing any of these from outside the
#: owning class corrupts the incremental-rebalancing invariants (a stale
#: ``_uf_parent`` entry or an unmarked dirty link silently freezes a
#: component's rates; a class count that disagrees with the rows skews
#: every rate on its links), so a write to one of these leaves is
#: substrate-private *regardless* of what the receiver happens to be
#: called (PIC402).
SUBSTRATE_PRIVATE_LEAVES = frozenset(
    {
        "_uf_parent", "_comp", "_dirty_links", "_adj", "_dead_pairs",
        "_class_ids", "_class_links", "_class_count", "_class_paths",
        "_class_pos", "_link_classes", "_link_entries", "_link_sizes",
    }
)


def module_name_for_path(path: Path) -> tuple[str | None, bool]:
    """Dotted module name of ``path`` by walking up ``__init__.py`` files.

    Returns ``(name, is_package)``; ``name`` is ``None`` for scripts
    that live outside any package.
    """
    try:
        resolved = path.resolve()
    except OSError:
        return None, False
    is_package = resolved.name == "__init__.py"
    parts: list[str] = [] if is_package else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    if not parts:
        return None, is_package
    return ".".join(reversed(parts)), is_package


def module_name_for_virtual_path(path: str) -> tuple[str | None, bool]:
    """Module name for in-memory sources: every directory is a package."""
    p = Path(path)
    if p.suffix != ".py":
        return None, False
    is_package = p.name == "__init__.py"
    parts = list(p.parts[:-1]) + ([] if is_package else [p.stem])
    parts = [part for part in parts if part not in (".", "/")]
    if not parts:
        return None, is_package
    return ".".join(parts), is_package


class ProjectGraph:
    """Class/function indexes and resolution over a set of module IRs."""

    def __init__(self, modules: Iterable[dict[str, Any]]) -> None:
        #: module dotted name -> module IR (unnamed modules keyed by path)
        self.modules: dict[str, dict[str, Any]] = {}
        #: fully-qualified class name -> (modkey, class name, class info)
        self.classes: dict[str, tuple[str, str, dict[str, Any]]] = {}
        #: fully-qualified function name -> fid
        self.functions: dict[str, str] = {}
        #: fid -> function IR
        self.function_ir: dict[str, dict[str, Any]] = {}
        #: fid -> path (for findings)
        self.fid_path: dict[str, str] = {}

        for ir in sorted(modules, key=lambda m: m["path"]):
            modkey = ir["module"] or ir["path"]
            self.modules[modkey] = ir
            for fid, fn in ir["functions"].items():
                self.function_ir[fid] = fn
                self.fid_path[fid] = ir["path"]
            for cname, info in ir["classes"].items():
                cfq = f"{modkey}.{cname}"
                self.classes[cfq] = (modkey, cname, info)
                for mname, fid in info["methods"].items():
                    self.functions[f"{cfq}.{mname}"] = fid
            for fid, fn in ir["functions"].items():
                if fn["class"] is None and "." not in fn["qual"]:
                    self.functions[f"{modkey}.{fn['qual']}"] = fid

        self._resolved_bases: dict[str, list[str]] = {}
        for cfq in self.classes:
            self._resolved_bases[cfq] = self._resolve_bases(cfq)
        self._subclasses: dict[str, set[str]] = {}
        for cfq, bases in self._resolved_bases.items():
            for base in bases:
                self._subclasses.setdefault(base, set()).add(cfq)
        #: Modules that *define* a substrate class own its internals:
        #: their helper functions are the implementation, not intruders.
        self.substrate_modules = frozenset(
            modkey
            for modkey, ir in self.modules.items()
            if any(self.is_substrate_class(f"{modkey}.{c}") for c in ir["classes"])
        )

    # -- dotted-name resolution ---------------------------------------

    def chase(self, dotted: str, depth: int = 4) -> str:
        """Follow re-export aliases until ``dotted`` names a definition.

        ``repro.apps.kmeans.KMeansProgram`` chases through the package
        ``__init__``'s ``from .program import KMeansProgram`` alias to
        ``repro.apps.kmeans.program.KMeansProgram``.
        """
        for _ in range(depth):
            if dotted in self.classes or dotted in self.functions:
                return dotted
            head, _, tail = dotted.rpartition(".")
            if not head or tail == "":
                return dotted
            ir = self.modules.get(head)
            if ir is None:
                return dotted
            target = ir["aliases"].get(tail)
            if target is None or target == dotted:
                return dotted
            dotted = target
        return dotted

    def resolve_class(self, dotted: str | None) -> str | None:
        if not dotted:
            return None
        dotted = self.chase(dotted)
        return dotted if dotted in self.classes else None

    def resolve_function(self, dotted: str | None) -> str | None:
        if not dotted:
            return None
        dotted = self.chase(dotted)
        fq = self.functions.get(dotted)
        return fq

    # -- class hierarchy -----------------------------------------------

    def _resolve_bases(self, cfq: str) -> list[str]:
        _, _, info = self.classes[cfq]
        out: list[str] = []
        for raw in info["bases"]:
            resolved = self.resolve_class(raw)
            if resolved is not None:
                out.append(resolved)
            else:
                out.append(raw)  # external base; keep for tail matching
        return out

    def bases(self, cfq: str) -> list[str]:
        return self._resolved_bases.get(cfq, [])

    def ancestors(self, cfq: str) -> list[str]:
        """``cfq`` plus every resolvable base, nearest-first."""
        seen: list[str] = []
        stack = [cfq]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.append(current)
            stack.extend(self.bases(current))
        return seen

    def descendants(self, cfq: str) -> set[str]:
        out: set[str] = set()
        stack = [cfq]
        while stack:
            for sub in self._subclasses.get(stack.pop(), ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return out

    def has_base_tail(self, cfq: str, tail: str) -> bool:
        """Does ``cfq``'s (transitive) base chain include a class whose
        name ends in ``tail``?  External bases match by raw name."""
        stack = list(self.bases(cfq))
        seen: set[str] = set()
        while stack:
            base = stack.pop()
            if base in seen:
                continue
            seen.add(base)
            if base.rpartition(".")[2] == tail:
                return True
            stack.extend(self.bases(base))
        return False

    def program_classes(self) -> list[str]:
        """Every class deriving (by name) from ``PICProgram`` — plus the
        abstract base itself when it is in the project."""
        out = [
            cfq
            for cfq in sorted(self.classes)
            if cfq.rpartition(".")[2] == "PICProgram"
            or self.has_base_tail(cfq, "PICProgram")
        ]
        return out

    # -- dispatch ------------------------------------------------------

    def own_method(self, cfq: str, name: str) -> str | None:
        info = self.classes.get(cfq)
        if info is None:
            return None
        return info[2]["methods"].get(name)

    def inherited_method(self, cfq: str, name: str) -> str | None:
        """Nearest definition of ``name`` on ``cfq`` or an ancestor."""
        for cls in self.ancestors(cfq):
            fid = self.own_method(cls, name)
            if fid is not None:
                return fid
        return None

    def method_candidates(self, cfq: str, name: str) -> list[str]:
        """All concrete targets of ``obj.name()`` for ``obj: cfq``:
        the inherited definition plus every subclass override."""
        out: list[str] = []
        fid = self.inherited_method(cfq, name)
        if fid is not None:
            out.append(fid)
        for sub in sorted(self.descendants(cfq)):
            sub_fid = self.own_method(sub, name)
            if sub_fid is not None and sub_fid not in out:
                out.append(sub_fid)
        return out

    def attr_type(self, cfq: str, attr: str) -> str | None:
        """Resolved class of ``self.<attr>`` inside ``cfq`` methods."""
        for cls in self.ancestors(cfq):
            raw = self.classes[cls][2]["attr_types"].get(attr)
            if raw is not None:
                return self.resolve_class(raw) or raw
        return None

    def is_substrate_class(self, cfq: str | None) -> bool:
        if cfq is None:
            return False
        if cfq.rpartition(".")[2] in SUBSTRATE_CLASS_TAILS:
            return True
        return any(
            self.has_base_tail(cfq, tail) for tail in SUBSTRATE_CLASS_TAILS
        )
