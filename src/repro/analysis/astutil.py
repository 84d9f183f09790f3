"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast

__all__ = [
    "dotted_name",
    "module_all",
    "own_nodes",
    "toplevel_defined_names",
]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def own_nodes(func: ast.AST) -> list[ast.AST]:
    """The nodes of a function's body, not descending into nested defs."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def toplevel_defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level (defs, classes, assignments, imports).

    Descends into top-level ``if``/``try`` bodies (``TYPE_CHECKING``
    guards, optional imports) but not into functions or classes.
    """
    names: set[str] = set()

    def visit_body(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    _collect_targets(target, names)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                _collect_targets(node.target, names)
            elif isinstance(node, ast.Import):
                for item in node.names:
                    names.add(item.asname or item.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for item in node.names:
                    if item.name != "*":
                        names.add(item.asname or item.name)
            elif isinstance(node, ast.If):
                visit_body(node.body)
                visit_body(node.orelse)
            elif isinstance(node, ast.Try):
                visit_body(node.body)
                for handler in node.handlers:
                    visit_body(handler.body)
                visit_body(node.orelse)
                visit_body(node.finalbody)

    visit_body(tree.body)
    return names


def _collect_targets(target: ast.AST, names: set[str]) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _collect_targets(element, names)


def module_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    """The module's ``__all__`` node and names, or ``None``.

    Only literal list/tuple assignments are understood; augmented or
    computed ``__all__`` forms return ``None`` (rules then skip the
    checks that need it).
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return None
        names: list[str] = []
        for element in node.value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            else:
                return None
        return node, names
    return None

