"""RA009 — hot-path performance lint: dense materialization + loop churn.

The paper's entire result is that sparse KPM iteration beats dense
algebra by orders of magnitude in both time and memory (Sec. 3: CSR
SpMV at O(nnz) vs dense O(N²)).  Two code smells quietly walk that
back:

* **Dense materialization** — ``np.eye``, any ``np.linalg.*`` call, or
  ``.todense()`` / ``.toarray()`` inside a hot-path module turns an
  O(nnz) workload into O(N²) memory and O(N²)–O(N³) compute.  Exact
  spectral bounds via ``eigvalsh`` are legitimate for *small* systems,
  which is why :func:`repro.kpm.rescale.exact_bounds` gates on matrix
  size and carries an explicit, audited suppression.
* **Per-iteration allocation** — ``np.zeros`` / ``np.empty`` / … inside
  a ``for``/``while`` body reallocates every Chebyshev iteration;
  buffers belong outside the loop (the three-term recurrence needs only
  ping-pong arrays).  Only the loop *body* is scanned: an allocation in
  the iterator expression runs once and is fine.

The rule applies only to modules matching ``hot-path-modules``
(default: ``kpm/*``, ``gpukpm/*``, ``sparse/*``, ``gpu/*``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.config import AnalysisConfig, match_path
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["HotPathPerfRule"]

#: Sparse-to-dense conversion methods flagged anywhere in a hot path.
_DENSE_METHODS = frozenset({"todense", "toarray"})


class HotPathPerfRule(Rule):
    """Flag dense materialization and per-iteration allocation in hot paths."""

    id = "RA009"
    name = "hot-path-perf"
    description = (
        "dense materialization (np.eye / np.linalg.* / .todense()) or "
        "per-iteration allocation inside a loop in a hot-path module"
    )
    explain = (
        "RA009 lints the modules matching [tool.repro-analysis] "
        "hot-path-modules for the two patterns that undo the paper's "
        "sparse-KPM asymptotics: (1) dense materialization — np.eye, any "
        "np.linalg.* call, or .todense()/.toarray() — which costs O(N^2) "
        "memory against the CSR pipeline's O(nnz); and (2) allocating "
        "array constructors (np.zeros/empty/ones/full/eye, configurable "
        "via loop-allocators) inside a for/while loop body, which churns "
        "the allocator once per Chebyshev iteration instead of reusing "
        "ping-pong buffers. Allocations in the loop's iterator expression "
        "run once and are not flagged. Hoist buffers out of the loop, or "
        "suppress a deliberate site with '# repro: noqa[RA009]' and a "
        "justifying comment (e.g. the size-gated exact_bounds eigvalsh)."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        if not match_path(module.rel_path, config.hot_path_modules):
            return
        numpy_aliases = module.aliases_of("numpy")
        allocators = frozenset(config.loop_allocators)

        # -- dense materialization, anywhere in the module ---------------
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] in numpy_aliases and len(parts) == 2 and parts[1] == "eye":
                yield module.finding(
                    node,
                    self.id,
                    f"dense identity via {name}; hot paths must stay O(nnz)",
                )
            elif (
                parts[0] in numpy_aliases
                and len(parts) >= 3
                and parts[1] == "linalg"
            ):
                yield module.finding(
                    node,
                    self.id,
                    f"dense linear algebra via {name} in a hot path; "
                    "gate on size or move off the hot path",
                )
            elif parts[-1] in _DENSE_METHODS and len(parts) >= 2:
                yield module.finding(
                    node,
                    self.id,
                    f"sparse-to-dense conversion via .{parts[-1]}() in a "
                    "hot path; O(N^2) memory",
                )

        # -- per-iteration allocation, loop bodies only ------------------
        seen: set[tuple[int, int]] = set()
        for loop in module.nodes:
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in loop.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue
                    name = dotted_name(node.func)
                    if name is None:
                        continue
                    parts = name.split(".")
                    if (
                        len(parts) == 2
                        and parts[0] in numpy_aliases
                        and parts[1] in allocators
                    ):
                        seen.add(key)
                        yield module.finding(
                            node,
                            self.id,
                            f"allocation {name} inside a loop body; hoist "
                            "the buffer out of the per-iteration path",
                        )
