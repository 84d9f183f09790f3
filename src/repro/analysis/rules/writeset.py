"""RA014 — kernel write-set hygiene: device writes must be block-owned.

The simulator runs blocks serially, so a kernel whose blocks write
overlapping elements still computes *something* — but on real hardware
the same launch is a data race.  The runtime sanitizer catches the
overlap dynamically (SAN006/SAN007); this rule catches the common
static shape: a ``@kernel`` block program that stores into a device
argument using indices with no lineage back to the block identity
(``ctx.linear_block_id``, ``ctx.block_idx``, or a ``ctx.thread_range``
partition).  Such a write lands on the same elements in every block.

A kernel that explicitly restricts itself to one block
(``if ctx.linear_block_id != 0: return``) is exempt: single-writer
reductions are the legitimate use of a whole-array store.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import own_nodes
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule
from repro.analysis.kernelver.extract import is_kernel_def

__all__ = ["KernelWriteSetRule"]

# ctx members whose value distinguishes blocks (or partitions work
# across them).  threads_per_block etc. are identical in every block
# and deliberately not included.
_CTX_SOURCES = frozenset({"linear_block_id", "block_idx", "thread_range"})


def _target_names(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


class KernelWriteSetRule(Rule):
    """Flag device writes whose indices ignore the block identity."""

    id = "RA014"
    name = "kernel-write-set"
    description = (
        "a @kernel body must index device writes through values derived "
        "from ctx.linear_block_id / ctx.block_idx / ctx.thread_range"
    )
    explain = (
        "RA014 taints every value derived from the block identity — "
        "ctx.linear_block_id, ctx.block_idx, and ctx.thread_range(...) — "
        "through assignments and for-loops inside a @kernel function, "
        "then inspects each store into a device argument (a subscript "
        "whose base is '<param>.data' or a local view carved from one). "
        "A store whose base and indices are all untainted writes the "
        "same elements from every block of the launch: a write-write "
        "race on real hardware, and exactly what the runtime sanitizer "
        "reports as SAN006. Fix by tiling the write with "
        "ctx.thread_range / ctx.linear_block_id, or, for single-writer "
        "reductions, guard the kernel with "
        "'if ctx.linear_block_id != 0: return' — a kernel that opens "
        "with that guard is exempt. Writes through bases the rule "
        "cannot resolve (helper calls, unknown objects) are skipped; "
        "the dynamic sanitizer remains the backstop."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for func in module.nodes:
            if is_kernel_def(func):
                yield from self._check_kernel(module, func)

    # ------------------------------------------------------------------
    def _check_kernel(
        self, module: SourceModule, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        params = [a.arg for a in func.args.args]
        if not params:
            return
        ctx_name = params[0]
        device_params = set(params[1:])
        nodes = own_nodes(func)

        if self._has_single_block_guard(nodes, ctx_name):
            return

        tainted, views, expr_tainted = self._propagate(nodes, ctx_name, device_params)

        for node in nodes:
            if isinstance(node, ast.Assign):
                targets, in_place = node.targets, False
            elif isinstance(node, ast.AugAssign):
                targets, in_place = [node.target], True
            else:
                continue
            for target in targets:
                message = self._bad_store(
                    target, device_params, tainted, views, func.name, in_place,
                    expr_tainted,
                )
                if message is not None:
                    yield module.finding(node, self.id, message)

    def _has_single_block_guard(self, nodes: list[ast.AST], ctx_name: str) -> bool:
        for node in nodes:
            if not isinstance(node, ast.If):
                continue
            mentions_block = any(
                isinstance(sub, ast.Attribute)
                and sub.attr in {"linear_block_id", "block_idx"}
                and isinstance(sub.value, ast.Name)
                and sub.value.id == ctx_name
                for sub in ast.walk(node.test)
            )
            has_return = any(isinstance(sub, ast.Return) for sub in node.body)
            if mentions_block and has_return:
                return True
        return False

    def _propagate(self, nodes, ctx_name, device_params):
        """Fixed-point taint + device-view discovery over the body."""
        tainted: set[str] = set()
        views: set[str] = set()

        def expr_tainted(expr: ast.AST) -> bool:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and sub.id in tainted:
                    return True
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in _CTX_SOURCES
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == ctx_name
                ):
                    return True
            return False

        def expr_is_view(expr: ast.AST) -> bool:
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "data"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in device_params
                ):
                    return True
                if isinstance(sub, ast.Name) and sub.id in views:
                    return True
            return False

        changed = True
        while changed:
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    value_tainted = expr_tainted(node.value)
                    value_view = expr_is_view(node.value)
                    for target in node.targets:
                        for name in _target_names(target):
                            if value_tainted and name not in tainted:
                                tainted.add(name)
                                changed = True
                            if value_view and name not in views:
                                views.add(name)
                                changed = True
                elif isinstance(node, ast.For):
                    if expr_tainted(node.iter):
                        for name in _target_names(node.target):
                            if name not in tainted:
                                tainted.add(name)
                                changed = True
        return tainted, views, expr_tainted

    def _bad_store(
        self,
        target: ast.AST,
        device_params: set[str],
        tainted: set[str],
        views: set[str],
        kernel_name: str,
        in_place: bool,
        expr_tainted,
    ) -> str | None:
        if isinstance(target, ast.Name):
            # `view += x` rewrites the whole device view from every block;
            # a plain `name = ...` only rebinds the local and is fine.
            if in_place and target.id in views and target.id not in tainted:
                return (
                    f"kernel {kernel_name!r} updates device view "
                    f"{target.id!r} identically from every block; derive it "
                    "from ctx.linear_block_id or guard the kernel to one block"
                )
            return None
        if not isinstance(target, ast.Subscript):
            return None
        keys: list[ast.AST] = []
        base: ast.AST = target
        while isinstance(base, ast.Subscript):
            keys.append(base.slice)
            base = base.value
        if isinstance(base, ast.Name):
            if base.id in tainted:
                return None
            if base.id not in views:
                return None  # unknown local: not provably a device buffer
            base_label = base.id
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "data"
            and isinstance(base.value, ast.Name)
            and base.value.id in device_params
        ):
            base_label = f"{base.value.id}.data"
        else:
            return None
        if any(expr_tainted(key) for key in keys):
            return None
        return (
            f"kernel {kernel_name!r} writes {base_label!r} with indices not "
            "derived from ctx.thread_range/ctx.linear_block_id; every block "
            "stores the same elements (write-write race, sanitizer SAN006)"
        )
