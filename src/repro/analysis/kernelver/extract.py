"""Read ``@kernel(..., contract=...)`` declarations from source ASTs.

The verifier must prove kernels *without executing them* — including
seeded-mutant copies of the tree and test fixtures that are never
importable.  So the contract is recovered from the decorator expression
itself: a restricted literal evaluator that knows exactly the four
contract constructors (:class:`KernelContract`, :class:`ArraySpec`,
:class:`MatrixSpec`, :class:`LaunchMode`) plus dict/tuple/list/constant
syntax.  A contract bound to a module-level name
(``_FOO = KernelContract(...)``) is resolved through that assignment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ValidationError
from repro.gpu.contracts import ArraySpec, KernelContract, LaunchMode, MatrixSpec

__all__ = ["KernelDef", "find_kernel_defs", "is_kernel_def"]

_CONSTRUCTORS = {
    "KernelContract": KernelContract,
    "ArraySpec": ArraySpec,
    "MatrixSpec": MatrixSpec,
    "LaunchMode": LaunchMode,
}


@dataclass
class KernelDef:
    """One ``@kernel`` definition found in a module."""

    func: ast.FunctionDef
    kernel_name: str
    contract: KernelContract | None
    contract_error: str | None = None


def _callee_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _kernel_decorator(func: ast.FunctionDef) -> ast.Call | None:
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _callee_name(target) == "kernel":
            return deco if isinstance(deco, ast.Call) else None
    return None


def is_kernel_def(func: ast.AST) -> bool:
    """True for a function definition decorated with ``@kernel``."""
    if not isinstance(func, ast.FunctionDef):
        return False
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _callee_name(target) == "kernel":
            return True
    return False


def _literal(node: ast.AST, consts: dict):
    """Evaluate a restricted contract-literal expression."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand, consts)
        if isinstance(value, (int, float)):
            return -value
        raise ValidationError("cannot negate a non-number in a contract literal")
    if isinstance(node, ast.Tuple):
        return tuple(_literal(item, consts) for item in node.elts)
    if isinstance(node, ast.List):
        return [_literal(item, consts) for item in node.elts]
    if isinstance(node, ast.Dict):
        out = {}
        for key, value in zip(node.keys, node.values):
            if key is None:
                raise ValidationError("contract literals cannot use ** unpacking")
            out[_literal(key, consts)] = _literal(value, consts)
        return out
    if isinstance(node, ast.Name):
        if node.id in consts:
            return _literal(consts[node.id], consts)
        raise ValidationError(f"unresolvable name {node.id!r} in contract literal")
    if isinstance(node, ast.Call):
        name = _callee_name(node.func)
        if name not in _CONSTRUCTORS:
            raise ValidationError(
                f"contract literals may only call contract constructors, "
                f"got {name!r}"
            )
        args = [_literal(arg, consts) for arg in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise ValidationError("contract literals cannot use ** unpacking")
            kwargs[kw.arg] = _literal(kw.value, consts)
        return _CONSTRUCTORS[name](*args, **kwargs)
    raise ValidationError(
        f"unsupported syntax in contract literal: {type(node).__name__}"
    )


def _module_consts(tree: ast.Module) -> dict:
    """Top-level single-target assignments, by name (AST nodes, lazy)."""
    consts: dict = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            consts[stmt.targets[0].id] = stmt.value
    return consts


def find_kernel_defs(
    tree: ast.Module, nodes: Iterable[ast.AST] | None = None
) -> list[KernelDef]:
    """Every ``@kernel`` function in the module, with its parsed contract.

    ``nodes`` is the module's node list when the caller already has it
    (:attr:`repro.analysis.core.SourceModule.nodes`); otherwise ``tree``
    is walked.  A kernel whose decorator has no ``contract=`` keyword
    gets ``contract=None``; one whose contract expression is not a
    statically evaluable literal gets ``contract=None`` plus
    ``contract_error``.
    """
    consts = _module_consts(tree)
    out: list[KernelDef] = []
    for node in ast.walk(tree) if nodes is None else nodes:
        if not is_kernel_def(node):
            continue
        deco = _kernel_decorator(node)
        kernel_name = node.name
        contract = None
        error = None
        if deco is not None:
            if deco.args and isinstance(deco.args[0], ast.Constant) and isinstance(
                deco.args[0].value, str
            ):
                kernel_name = deco.args[0].value
            contract_node = None
            for kw in deco.keywords:
                if kw.arg == "contract":
                    contract_node = kw.value
            if contract_node is not None and not (
                isinstance(contract_node, ast.Constant)
                and contract_node.value is None
            ):
                try:
                    value = _literal(contract_node, consts)
                except ValidationError as exc:
                    error = str(exc)
                else:
                    if isinstance(value, KernelContract):
                        contract = value
                    else:
                        error = (
                            "contract= must evaluate to a KernelContract, got "
                            f"{type(value).__name__}"
                        )
        out.append(
            KernelDef(
                func=node,
                kernel_name=kernel_name,
                contract=contract,
                contract_error=error,
            )
        )
    out.sort(key=lambda kd: kd.func.lineno)
    return out
