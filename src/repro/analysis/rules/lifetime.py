"""RA013 — DeviceArray lifetime: every ``.alloc(...)`` needs an owner.

The simulated device mirrors CUDA ownership: a buffer returned by
``Device.alloc`` must either be freed in the function that allocated it,
or have its ownership moved somewhere explicit — into an owning wrapper
object (a capitalized constructor call such as ``DeviceMatrix(...)``)
or a longer-lived attribute/container slot.  A local that is none of
these leaks VRAM until device reset (the runtime sanitizer reports it
as SAN005 only when a reset happens; this rule catches it statically).
Returning a raw :class:`DeviceArray` from the allocating function is
flagged separately: the array escapes its device scope and no caller
contract says who frees it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name, own_nodes
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["DeviceArrayLifetimeRule"]


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class DeviceArrayLifetimeRule(Rule):
    """Flag device allocations that are never freed or handed off."""

    id = "RA013"
    name = "device-array-lifetime"
    description = (
        "a local bound from .alloc(...) must be freed, transferred to an "
        "owning wrapper, or stored; returning it raw escapes its scope"
    )
    explain = (
        "RA013 tracks locals assigned from a device allocation call "
        "(any '<receiver>.alloc(...)'). Within the allocating function "
        "each such local must reach one of three endings: (1) an "
        "explicit '<name>.free()' call; (2) ownership transfer — the "
        "name is passed as an argument to a capitalized constructor "
        "(e.g. DeviceMatrix(csr_data=d_data, ...)), which then owns the "
        "buffer and its free; or (3) storage into an attribute or "
        "container slot, which moves the lifetime to the enclosing "
        "object. A name with none of these leaks device memory until "
        "reset — the runtime sanitizer's SAN005 — and is flagged here "
        "statically. Returning the raw DeviceArray is flagged as an "
        "escape: download with memcpy_dtoh and free instead, or wrap "
        "the array in an owning object so the contract is explicit."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        for func in module.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(module, func)

    # ------------------------------------------------------------------
    def _check_function(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        nodes = own_nodes(func)
        allocs: dict[str, ast.AST] = {}
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "alloc"
            ):
                allocs[node.targets[0].id] = node
        if not allocs:
            return

        freed: set[str] = set()
        transferred: set[str] = set()
        stored: set[str] = set()
        returned: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is not None:
                    parts = callee.rsplit(".", 1)
                    if parts[-1] == "free" and len(parts) == 2 and parts[0] in allocs:
                        freed.add(parts[0])
                    elif parts[-1][:1].isupper():
                        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                            if isinstance(arg, ast.Name) and arg.id in allocs:
                                transferred.add(arg.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        stored |= _names_in(node.value) & allocs.keys()
            elif isinstance(node, ast.Return) and node.value is not None:
                returned |= _names_in(node.value) & allocs.keys()

        for name, node in sorted(allocs.items(), key=lambda kv: kv[1].lineno):
            if name in freed or name in transferred or name in stored:
                continue
            if name in returned:
                yield module.finding(
                    node,
                    self.id,
                    f"device allocation {name!r} escapes its device scope via "
                    "return; download and free it here, or transfer ownership "
                    "to an owning wrapper",
                )
            else:
                yield module.finding(
                    node,
                    self.id,
                    f"device allocation {name!r} is neither freed nor "
                    "transferred on any path; call .free() after the last use",
                )
