"""RA006 — ``__all__`` / module surface consistency.

The library's public surface is its ``__all__`` lists (docs and the
``from repro.x import *`` re-export chains are generated from them).
Two failure modes corrupt that surface silently:

* an ``__all__`` entry that no longer exists in the module (rename or
  deletion drift) — ``import *`` raises at a distance, and docs link to
  nothing;
* a public def/class missing from ``__all__`` — the API exists but is
  invisible to the re-export chain and the docs.

Modules named ``__main__.py`` (entry points, not API surface) are
exempt; modules containing a star import skip the existence check
(the imported surface is unknowable statically).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import module_all, toplevel_defined_names
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["ExportConsistencyRule"]


class ExportConsistencyRule(Rule):
    """Cross-check ``__all__`` against the module's actual definitions."""

    id = "RA006"
    name = "export-consistency"
    description = (
        "__all__ names that do not exist, or public defs/classes missing "
        "from __all__"
    )
    explain = (
        "RA006 cross-checks each module's __all__ against what the "
        "module actually defines, in both directions: an __all__ entry "
        "naming nothing (rename/deletion drift) breaks 'import *' and "
        "docs links at a distance, and a public def/class missing from "
        "__all__ is invisible to the re-export chains the docs are "
        "generated from. __main__.py entry points are exempt; modules "
        "with a star import skip the existence direction."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if module.path.name == "__main__.py":
            return
        exported = module_all(module.tree)
        if exported is None:
            public_defs = [
                node.name
                for node in module.tree.body
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and not node.name.startswith("_")
            ]
            if public_defs:
                yield module.finding(
                    module.tree.body[0] if module.tree.body else module.tree,
                    self.id,
                    "module defines public names "
                    f"({', '.join(sorted(public_defs))}) but no __all__",
                )
            return
        all_node, names = exported

        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield module.finding(
                    all_node, self.id, f"__all__ lists {name!r} twice"
                )
            seen.add(name)

        has_star_import = any(
            isinstance(node, ast.ImportFrom)
            and any(item.name == "*" for item in node.names)
            for node in module.nodes
        )
        if not has_star_import:
            defined = toplevel_defined_names(module.tree)
            for name in names:
                if name not in defined:
                    yield module.finding(
                        all_node,
                        self.id,
                        f"__all__ entry {name!r} is not defined in the module",
                    )

        declared = set(names)
        for node in module.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                if node.name not in declared:
                    yield module.finding(
                        node,
                        self.id,
                        f"public {type(node).__name__.replace('Def', '').lower()} "
                        f"'{node.name}' is missing from __all__",
                    )
