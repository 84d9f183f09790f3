"""Proof obligations over interpreted kernel accesses (RA016/RA017/RA019).

For every ``@kernel`` with a contract, each declared launch mode is
interpreted (:mod:`repro.analysis.kernelver.interp`) and the recorded
symbolic accesses are discharged against three obligation families:

* **bounds** (RA016) — every access hull lies inside the declared
  extent for the whole launch domain;
* **disjointness** (RA017) — write/write and write/read pairs on one
  buffer are cross-block disjoint (partition cells of one family,
  block-affine points, or block-pinned accesses);
* **coverage** (RA019) — the declared coverage dimension of an output
  is written through exactly one covering scheme (one partition family,
  ``[block_id]`` with a ``grid``-extent, or a block-pinned full write),
  so every element is assigned and no element by two blocks.

Issues are *certain* (a proven violation — e.g. a hull provably past
the extent, or a provably identical block-independent write pair) or
*uncertain* (the proof does not discharge).  A kernel is **proven**
when no mode has problems or issues; RA020 decides what an unproven
kernel needs instead (a named sanitize workload).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.kernelver.extract import KernelDef, find_kernel_defs
from repro.analysis.kernelver.interp import ModeResult, interpret_mode, ref_extent
from repro.analysis.kernelver.sym import Affine, Domain, parse_affine
from repro.analysis.kernelver.values import (
    Access,
    Cell,
    CellElem,
    Full,
    Iv,
    Pt,
    Ref,
    Unknown,
    dim_hull,
)
from repro.gpu.contracts import KernelContract

__all__ = [
    "Issue",
    "KernelReport",
    "ModeReport",
    "module_reports",
    "verify_kernel",
    "verify_module",
]


@dataclass(frozen=True)
class Issue:
    """One failed proof obligation."""

    rule: str  # "RA016" | "RA017" | "RA019"
    line: int
    message: str
    certain: bool  # True: proven violation; False: proof did not discharge


@dataclass
class ModeReport:
    """Verification outcome of one kernel under one launch mode."""

    mode_name: str
    result: ModeResult
    issues: list


@dataclass
class KernelReport:
    """Verification outcome of one ``@kernel`` definition."""

    kernel_name: str
    func_name: str
    line: int
    contract: KernelContract | None
    contract_error: str | None
    modes: list

    @property
    def problems(self) -> list:
        out = []
        for mode in self.modes:
            out.extend(mode.result.problems)
        return sorted(set(out))

    def issues(self, rule: str | None = None) -> list:
        out = []
        for mode in self.modes:
            for issue in mode.issues:
                if rule is None or issue.rule == rule:
                    out.append((mode.mode_name, issue))
        return out

    @property
    def proven(self) -> bool:
        return (
            self.contract is not None
            and self.contract_error is None
            and not self.problems
            and not any(mode.issues for mode in self.modes)
        )

    @property
    def status(self) -> str:
        if self.proven:
            return "proven"
        if self.contract is not None and self.contract.sanitize_workload:
            # Certain issues are real violations — a sanitize workload
            # covers unprovability, not proven-wrong kernels.
            if any(issue.certain for _, issue in self.issues()):
                return "failed"
            return "sanitize"
        return "failed"


def _loc(access: Access) -> str:
    name = access.param if access.field is None else f"{access.param}.{access.field}"
    return name


def _padded(dims: tuple, rank: int) -> tuple:
    if len(dims) >= rank:
        return dims
    return dims + tuple(Full() for _ in range(rank - len(dims)))


# ----------------------------------------------------------------------
# RA016 — static bounds
# ----------------------------------------------------------------------
def _check_bounds(contract, result: ModeResult, issues: list) -> None:
    for access in result.accesses:
        extent = ref_extent(contract, Ref(access.param, access.field))
        where = _loc(access)
        if extent is None:
            issues.append(
                Issue(
                    "RA016",
                    access.line,
                    f"{access.kind} of {where} has no declared extent "
                    "(undeclared parameter or missing nnz/ell_width)",
                    certain=False,
                )
            )
            continue
        if len(access.dims) > len(extent):
            issues.append(
                Issue(
                    "RA016",
                    access.line,
                    f"{access.kind} of {where} uses {len(access.dims)} indices "
                    f"but the declared extent has rank {len(extent)}",
                    certain=True,
                )
            )
            continue
        domain = access.domain or result.domain
        for axis, dim in enumerate(access.dims):
            if isinstance(dim, Full):
                continue  # full dimension: in-bounds by construction
            hull = dim_hull(dim, extent[axis], domain)
            if hull is None:
                issues.append(
                    Issue(
                        "RA016",
                        access.line,
                        f"{access.kind} of {where} axis {axis}: index set "
                        "is not statically resolvable",
                        certain=False,
                    )
                )
                continue
            lo, hi = hull
            if not domain.ge(lo, 0):
                certain = domain.always_negative(lo)
                issues.append(
                    Issue(
                        "RA016",
                        access.line,
                        f"{access.kind} of {where} axis {axis}: lower bound "
                        f"{lo.text()} {'is' if certain else 'may be'} below 0",
                        certain=certain,
                    )
                )
            if not domain.ge(extent[axis] - 1, hi):
                certain = domain.ge(hi, extent[axis])
                issues.append(
                    Issue(
                        "RA016",
                        access.line,
                        f"{access.kind} of {where} axis {axis}: upper bound "
                        f"{hi.text()} {'exceeds' if certain else 'may exceed'} "
                        f"extent {extent[axis].text()}",
                        certain=certain,
                    )
                )


# ----------------------------------------------------------------------
# RA017 — cross-block disjointness
# ----------------------------------------------------------------------
_BLK_A = "blk#a"
_BLK_B = "blk#b"


def _block_free(expr: Affine) -> bool:
    return expr.coeff("block_id") == 0


def _dim_cross_block_disjoint(a, b) -> bool:
    """Is this dimension provably disjoint between two distinct blocks?"""
    if isinstance(a, (Cell, CellElem)) and isinstance(b, (Cell, CellElem)):
        shift_a = getattr(a, "shift", 0)
        shift_b = getattr(b, "shift", 0)
        # Cells of one family partition [0, total): distinct blocks get
        # disjoint cells, and a common elementwise shift preserves that.
        return a.family == b.family and shift_a == shift_b
    if isinstance(a, Pt) and isinstance(b, Pt):
        diff = a.expr.rename({"block_id": _BLK_A}) - b.expr.rename(
            {"block_id": _BLK_B}
        )
        coeff_a = diff.coeff(_BLK_A)
        coeff_b = diff.coeff(_BLK_B)
        rest = diff.drop(_BLK_A).drop(_BLK_B)
        # diff == c * (blkA - blkB) with c != 0 never vanishes for
        # distinct blocks.
        if coeff_a != 0 and coeff_a == -coeff_b and rest == Affine.of(0):
            return True
        # Block-independent points a nonzero constant apart never meet.
        return coeff_a == 0 and coeff_b == 0 and rest.is_const and rest.const != 0
    if isinstance(a, Iv) and isinstance(b, Iv) and a == b:
        # Identical block-affine windows [lo(b), hi(b)]: windows of
        # distinct blocks are disjoint when the stride exceeds the width.
        coeff = a.lo.coeff("block_id")
        if coeff != 0 and coeff == a.hi.coeff("block_id"):
            gap = (a.lo + abs(coeff)) - a.hi  # next window's lo minus this hi
            return gap.is_const and gap.const >= 1
    return False


def _dim_certainly_shared(a, b) -> bool:
    """Do two blocks provably touch the same indices in this dimension?"""
    if isinstance(a, Full) and isinstance(b, Full):
        return True
    if a == b and isinstance(a, Pt):
        return _block_free(a.expr)
    return False


def _check_disjoint(contract, result: ModeResult, issues: list) -> None:
    accesses = result.accesses
    writes = [a for a in accesses if a.kind == "write"]
    reads = [a for a in accesses if a.kind == "read"]
    for i, first in enumerate(writes):
        # A write is paired against itself too: an unpinned write to a
        # block-independent region is every block racing every other on
        # the same syntactic access.
        for second in writes[i:] + reads:
            if (first.param, first.field) != (second.param, second.field):
                continue
            if first is second and first.pinned is not None:
                continue  # executes on one fixed block only
            if (
                first is not second
                and first.pinned is not None
                and second.pinned is not None
                and first.pinned == second.pinned
            ):
                continue  # both guarded to the same block: no cross-block pair
            extent = ref_extent(contract, Ref(first.param, first.field))
            rank = (
                len(extent)
                if extent is not None
                else max(len(first.dims), len(second.dims))
            )
            dims_a = _padded(first.dims, rank)
            dims_b = _padded(second.dims, rank)
            if any(
                _dim_cross_block_disjoint(a, b)
                for a, b in zip(dims_a, dims_b)
            ):
                continue
            certain = (
                first.pinned is None
                and second.pinned is None
                and len(dims_a) == len(dims_b)
                and all(
                    _dim_certainly_shared(a, b) for a, b in zip(dims_a, dims_b)
                )
            )
            pair = "write/write" if second.kind == "write" else "write/read"
            verdict = "overlaps" if certain else "is not provably disjoint"
            issues.append(
                Issue(
                    "RA017",
                    max(first.line, second.line),
                    f"{pair} on {_loc(first)} (lines {first.line} and "
                    f"{second.line}) {verdict} across blocks",
                    certain=certain,
                )
            )


# ----------------------------------------------------------------------
# RA019 — launch coverage
# ----------------------------------------------------------------------
def _coverage_scheme(access: Access, cov_axis: int, extent, domain: Domain):
    """Classify one write's covering shape on the coverage axis.

    Returns ``("cell", family)`` / ``("block_pt", None)`` /
    ``("pinned_full", pin)`` or ``None`` when the write does not fit a
    recognized exactly-once scheme.
    """
    dims = _padded(access.dims, len(extent))
    dim = dims[cov_axis]
    if isinstance(dim, (Cell, CellElem)):
        if getattr(dim, "shift", 0) != 0:
            return None
        if domain.eq(dim.total, extent[cov_axis]):
            return ("cell", dim.family)
        return None
    if isinstance(dim, Pt):
        if dim.expr == Affine.of("block_id") and domain.eq(
            extent[cov_axis], "grid"
        ):
            return ("block_pt", None)
        return None
    if isinstance(dim, Full) and access.pinned is not None:
        return ("pinned_full", access.pinned)
    return None


def _check_coverage(contract, mode, result: ModeResult, issues: list) -> None:
    arrays = dict(contract.arrays)
    for param, spec in arrays.items():
        if spec.coverage is None or param in mode.absent:
            continue
        extent = tuple(parse_affine(dim) for dim in spec.extent)
        cov_axis = spec.coverage
        writes = [
            a
            for a in result.accesses
            if a.param == param and a.field is None and a.kind == "write"
        ]
        if not writes:
            issues.append(
                Issue(
                    "RA019",
                    0,
                    f"output {param!r} declares coverage on axis {cov_axis} "
                    "but is never written",
                    certain=False,
                )
            )
            continue
        schemes = []
        bad = False
        for access in writes:
            domain = access.domain or result.domain
            scheme = _coverage_scheme(access, cov_axis, extent, domain)
            if scheme is None:
                issues.append(
                    Issue(
                        "RA019",
                        access.line,
                        f"write to {param!r} does not fit an exactly-once "
                        f"covering scheme on coverage axis {cov_axis}",
                        certain=False,
                    )
                )
                bad = True
                continue
            schemes.append((access, scheme))
        if bad or not schemes:
            continue
        kinds = {scheme for _, scheme in schemes}
        if len(kinds) > 1:
            lines = sorted({access.line for access, _ in schemes})
            issues.append(
                Issue(
                    "RA019",
                    lines[-1],
                    f"writes to {param!r} (lines {lines}) mix covering "
                    "schemes, so blocks may assign elements twice",
                    certain=False,
                )
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_kernel(kernel_def: KernelDef, tree: ast.Module) -> KernelReport:
    """Interpret and verify one kernel under every declared launch mode."""
    contract = kernel_def.contract
    modes: list = []
    if contract is not None:
        for mode in contract.modes:
            result = interpret_mode(kernel_def.func, contract, mode, tree)
            issues: list = []
            _check_bounds(contract, result, issues)
            _check_disjoint(contract, result, issues)
            _check_coverage(contract, mode, result, issues)
            modes.append(
                ModeReport(mode_name=mode.name, result=result, issues=issues)
            )
    return KernelReport(
        kernel_name=kernel_def.kernel_name,
        func_name=kernel_def.func.name,
        line=kernel_def.func.lineno,
        contract=contract,
        contract_error=kernel_def.contract_error,
        modes=modes,
    )


def verify_module(
    tree: ast.Module, nodes: Iterable[ast.AST] | None = None
) -> list:
    """Verify every ``@kernel`` definition in a module AST."""
    return [verify_kernel(kd, tree) for kd in find_kernel_defs(tree, nodes)]


def module_reports(module) -> list:
    """:func:`verify_module` of a loaded module, memoized on the module.

    RA016/RA017/RA019/RA020 and the certificate builder all consume the
    same verification, so one interpretation per module serves them all.
    """
    if module.kernel_reports is None:
        module.kernel_reports = verify_module(module.tree, module.nodes)
    return module.kernel_reports
