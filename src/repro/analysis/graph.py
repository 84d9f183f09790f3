"""Whole-program view: the resolved import graph.

The per-file rules (RA001–RA006) see one module at a time; the graph
rules (RA007 layering, cycle detection) need the *project*: which
scanned module imports which, at which line, eagerly or lazily.

:class:`ProjectGraph` is built once per analysis run from the already
parsed :class:`~repro.analysis.core.SourceModule` list — stdlib
:mod:`ast` only, nothing is executed or imported.

Resolution rules
----------------
* A scan root that contains ``__init__.py`` is itself a package: its
  directory name prefixes every module name (scanning ``src/repro``
  yields ``repro.kpm.dos`` for ``kpm/dos.py``).
* ``import a.b.c`` / ``from a.b import c`` resolve to the *longest*
  scanned module name matching the dotted path; unknown targets are
  external and produce no edge.
* Relative imports (``from ..util import x``) resolve against the
  importing module's package.
* An import inside a function or method body is a **lazy** edge; one
  inside an ``if TYPE_CHECKING:`` block is a **type-checking** edge.
  Both are recorded (and exported) but excluded from layering and cycle
  analysis — they do not execute at import time.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.core import SourceModule

__all__ = [
    "ImportEdge",
    "ModuleNode",
    "ProjectGraph",
    "module_name_for",
]

GRAPH_JSON_VERSION = 1


@dataclass(frozen=True)
class ImportEdge:
    """One resolved intra-project import."""

    source: str
    target: str
    lineno: int
    col: int
    lazy: bool = False
    type_checking: bool = False

    @property
    def eager(self) -> bool:
        """True when the import executes at module-import time."""
        return not (self.lazy or self.type_checking)


@dataclass
class ModuleNode:
    """One scanned module with its resolved imports."""

    name: str
    rel_path: str
    imports: list[ImportEdge] = field(default_factory=list)

    @property
    def layer(self) -> str:
        """The module's layer name: its first path segment (or stem).

        ``kpm/dos.py`` → ``kpm``; a top-level ``timing.py`` → ``timing``.
        """
        if "/" in self.rel_path:
            return self.rel_path.split("/", 1)[0]
        stem = self.rel_path
        if stem.endswith(".py"):
            stem = stem[:-3]
        return stem


def module_name_for(rel_path: str, root: Path) -> str:
    """Dotted module name of ``rel_path`` under scan root ``root``."""
    parts = rel_path[:-3].split("/") if rel_path.endswith(".py") else rel_path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if (root / "__init__.py").is_file():
        parts = [root.name, *parts]
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    name = None
    if isinstance(test, ast.Name):
        name = test.id
    elif isinstance(test, ast.Attribute):
        name = test.attr
    return name == "TYPE_CHECKING"


class _ImportCollector(ast.NodeVisitor):
    """Collect raw (dotted-target, lineno, col, lazy, type_checking) tuples."""

    def __init__(self, package: str) -> None:
        self.package = package  # dotted package of the visited module
        self.raw: list[tuple[str, int, int, bool, bool]] = []
        self._function_depth = 0
        self._type_checking_depth = 0

    # -- scope tracking ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- imports -------------------------------------------------------
    def _add(self, target: str, node: ast.AST) -> None:
        self.raw.append(
            (
                target,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                self._function_depth > 0,
                self._type_checking_depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for item in node.names:
            self._add(item.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0:
            base = node.module or ""
        else:
            package_parts = self.package.split(".") if self.package else []
            # level=1 strips nothing beyond the module itself (package),
            # each extra level strips one more parent.
            keep = len(package_parts) - (node.level - 1)
            if keep < 0:
                return  # beyond the scan root; unresolvable
            base_parts = package_parts[:keep]
            if node.module:
                base_parts = base_parts + node.module.split(".")
            base = ".".join(base_parts)
        if not base:
            return
        for item in node.names:
            if item.name == "*":
                self._add(base, node)
            else:
                self._add(f"{base}.{item.name}", node)


@dataclass
class ProjectGraph:
    """Resolved module-level import graph over one analysis run."""

    modules: dict[str, ModuleNode] = field(default_factory=dict)

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, pairs: Iterable[tuple[SourceModule, Path]]) -> "ProjectGraph":
        """Build the graph from ``(module, scan_root)`` pairs."""
        pairs = list(pairs)
        nodes: dict[str, ModuleNode] = {}
        sources: list[tuple[SourceModule, str]] = []
        for module, root in pairs:
            name = module_name_for(module.rel_path, root)
            nodes[name] = ModuleNode(name=name, rel_path=module.rel_path)
            sources.append((module, name))
        known = sorted(nodes, key=len, reverse=True)  # longest-prefix first
        for module, name in sources:
            node = nodes[name]
            package = name if module.rel_path.endswith("__init__.py") else (
                name.rsplit(".", 1)[0] if "." in name else ""
            )
            collector = _ImportCollector(package)
            collector.visit(module.tree)
            for target, lineno, col, lazy, type_checking in collector.raw:
                resolved = _resolve(target, known, nodes)
                if resolved is None or resolved == name:
                    continue
                node.imports.append(
                    ImportEdge(
                        source=name,
                        target=resolved,
                        lineno=lineno,
                        col=col,
                        lazy=lazy,
                        type_checking=type_checking,
                    )
                )
        return cls(modules=nodes)

    # -- queries -------------------------------------------------------
    def node_for_path(self, rel_path: str) -> ModuleNode | None:
        """The node whose source file is ``rel_path``, if scanned."""
        for node in self.modules.values():
            if node.rel_path == rel_path:
                return node
        return None

    def edges(self, *, eager_only: bool = False) -> Iterator[ImportEdge]:
        """All resolved edges, sorted by (source, line)."""
        for name in sorted(self.modules):
            for edge in sorted(
                self.modules[name].imports, key=lambda e: (e.lineno, e.col, e.target)
            ):
                if eager_only and not edge.eager:
                    continue
                yield edge

    def cycles(self) -> list[list[str]]:
        """Import cycles (strongly connected components of eager edges).

        Each cycle is returned rotated to start at its alphabetically
        first member; the list is sorted for deterministic output.
        """
        adjacency: dict[str, list[str]] = {name: [] for name in self.modules}
        for edge in self.edges(eager_only=True):
            adjacency[edge.source].append(edge.target)

        # Iterative Tarjan SCC.
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0

        for start in sorted(adjacency):
            if start in index_of:
                continue
            work: list[tuple[str, Iterator[str]]] = [(start, iter(adjacency[start]))]
            index_of[start] = lowlink[start] = counter
            counter += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index_of:
                        index_of[child] = lowlink[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(adjacency[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        pivot = component.index(min(component))
                        sccs.append(component[pivot:] + component[:pivot])
        return sorted(sccs)

    # -- export --------------------------------------------------------
    def to_dot(self) -> str:
        """Graphviz dot form: lazy edges dashed, type-checking dotted."""
        lines = ["digraph project {", "  rankdir=LR;"]
        for name in sorted(self.modules):
            lines.append(f'  "{name}";')
        for edge in self.edges():
            style = ""
            if edge.type_checking:
                style = ' [style=dotted, label="type"]'
            elif edge.lazy:
                style = ' [style=dashed, label="lazy"]'
            lines.append(f'  "{edge.source}" -> "{edge.target}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Machine-readable form (schema pinned by the golden test)."""
        payload = {
            "version": GRAPH_JSON_VERSION,
            "modules": [
                {
                    "name": node.name,
                    "path": node.rel_path,
                    "layer": node.layer,
                    "imports": [
                        {
                            "target": edge.target,
                            "line": edge.lineno,
                            "lazy": edge.lazy,
                            "type_checking": edge.type_checking,
                        }
                        for edge in sorted(
                            node.imports, key=lambda e: (e.lineno, e.col, e.target)
                        )
                    ],
                }
                for _, node in sorted(self.modules.items())
            ],
        }
        return json.dumps(payload, indent=2)


def _resolve(
    target: str, known_longest_first: list[str], nodes: dict[str, ModuleNode]
) -> str | None:
    """Longest scanned module name that is a dotted prefix of ``target``."""
    for name in known_longest_first:
        if target == name or target.startswith(name + "."):
            return name
    return None
