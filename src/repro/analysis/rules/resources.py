"""RA011 — resource and span hygiene: context managers must be entered.

Three leak shapes this repo has actually grown defenses against:

* **File handles** — ``open(...)`` / ``tempfile.NamedTemporaryFile(...)``
  used outside a ``with`` item leaks the descriptor on any exception
  path.  (A factory that deliberately returns an open handle, like
  :func:`repro.sparse.io.open_matrix_file`, documents itself with an
  audited ``# repro: noqa[RA011]``.)
* **Tracer activations / spans** — ``tracer.activate()``,
  ``tracer.span(...)`` and ``tracer.device_span(...)`` return context
  managers; calling one outside ``with`` silently records nothing (or
  corrupts the span stack on the recording tracer).
* **ContextVar set without reset** — ``var.set(...)`` in a function
  with no matching ``var.reset(...)`` leaks ambient state across calls;
  the token-restoring pattern in :func:`repro.trace.tracer._activate`
  is the required shape.

``ExitStack.enter_context(open(...))`` is recognized as entered.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Finding, Rule, SourceModule

__all__ = ["ResourceHygieneRule"]

#: Callables returning OS resources that must be entered via ``with``.
_RESOURCE_CALLS = frozenset({"open", "NamedTemporaryFile", "TemporaryDirectory"})

#: Tracer methods returning context managers that must be entered.
_SPAN_METHODS = frozenset({"activate", "span", "device_span"})


class ResourceHygieneRule(Rule):
    """Flag un-entered resource constructors and unbalanced ContextVar sets."""

    id = "RA011"
    name = "resource-hygiene"
    description = (
        "open()/NamedTemporaryFile()/tracer span outside a with block, or "
        "ContextVar.set() without a reset in the same function"
    )
    explain = (
        "RA011 requires context-manager-shaped resources to actually be "
        "entered: open() and tempfile.NamedTemporaryFile()/"
        "TemporaryDirectory() must appear as a with-item (or be passed to "
        "ExitStack.enter_context), and the tracer surface returning "
        "context managers — .activate(), .span(), .device_span() — must "
        "be entered too, since an un-entered span records nothing and an "
        "un-entered activate leaks the ambient tracer. Separately, any "
        "function that calls .set() on a module-level ContextVar must "
        "also call .reset() on it (the token pattern in "
        "repro.trace.tracer._activate); a set without reset leaks state "
        "across calls and breaks run isolation. Deliberate "
        "handle-returning factories carry '# repro: noqa[RA011]'."
    )

    def check(
        self, module: SourceModule, config: AnalysisConfig
    ) -> Iterator[Finding]:
        entered = _entered_calls(module.nodes)
        for node in module.nodes:
            if not isinstance(node, ast.Call) or id(node) in entered:
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf in _RESOURCE_CALLS and (
                "." not in name or name.split(".", 1)[0] in ("tempfile", "io")
            ):
                yield module.finding(
                    node,
                    self.id,
                    f"{name}() outside a with block; enter the context "
                    "manager or close on every path",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and leaf in _SPAN_METHODS
                and _looks_like_tracer(node.func.value)
            ):
                yield module.finding(
                    node,
                    self.id,
                    f"tracer .{leaf}() outside a with block; the returned "
                    "context manager must be entered",
                )
        yield from self._check_contextvars(module)

    # ------------------------------------------------------------------
    def _check_contextvars(self, module: SourceModule) -> Iterator[Finding]:
        contextvars = _module_contextvars(module.tree)
        if not contextvars:
            return
        for func in module.nodes:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sets: dict[str, ast.Call] = {}
            resets: set[str] = set()
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in contextvars
                ):
                    continue
                var = node.func.value.id
                if node.func.attr == "set":
                    sets.setdefault(var, node)
                elif node.func.attr == "reset":
                    resets.add(var)
            for var, node in sorted(sets.items()):
                if var not in resets:
                    yield module.finding(
                        node,
                        self.id,
                        f"{var}.set() without a matching {var}.reset() in "
                        "this function; restore the token in a finally",
                    )


def _entered_calls(nodes: list[ast.AST]) -> set[int]:
    """ids of Call nodes used as with-items or enter_context arguments."""
    entered: set[int] = set()
    for node in nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    entered.add(id(item.context_expr))
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None and callee.rsplit(".", 1)[-1] == "enter_context":
                for arg in node.args:
                    if isinstance(arg, ast.Call):
                        entered.add(id(arg))
    return entered


def _looks_like_tracer(receiver: ast.AST) -> bool:
    """Heuristic: does the receiver name look like a tracer object?"""
    name = dotted_name(receiver)
    if name is None:
        return False
    return "tracer" in name.rsplit(".", 1)[-1].lower()


def _module_contextvars(tree: ast.Module) -> set[str]:
    """Module-level names assigned from a ``ContextVar(...)`` call."""
    names: set[str] = set()
    for node in tree.body:
        value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if not isinstance(value, ast.Call):
            continue
        callee = dotted_name(value.func)
        if callee is None or callee.rsplit(".", 1)[-1] != "ContextVar":
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names
