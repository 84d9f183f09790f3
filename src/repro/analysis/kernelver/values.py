"""Abstract values and per-dimension index sets of the kernel verifier.

The interpreter (:mod:`repro.analysis.kernelver.interp`) evaluates a
block program's body over these values.  Scalars are affine forms
(:class:`SymVal`) or intervals; device buffers are :class:`Ref` regions
— a parameter plus the per-dimension :class:`IndexSet` prefix consumed
so far; and the partition idioms of the simulator get dedicated shapes:

* ``ctx.thread_range(n)`` and ``plan.vectors_of(block_id)`` become
  :class:`CellVal` — *the block's cell of an exact partition of
  ``[0, total)``*.  Cells of the same family are disjoint across blocks
  and union-exact by construction, which is what makes both the
  race proof (RA017) and the coverage proof (RA019) discharge.
  Looping over a cell, over its lanes (``plan.lanes_of(block_id, w)``)
  or over one lane binds :class:`CellElemVal`: a subset of the cell
  that the loop reaches exhaustively.
* The CSR row-pointer walk (``starts = indptr[rows]; lengths =
  indptr[rows+1] - starts; pos = starts[lengths > k] + k``) is tracked
  through :class:`PtrVals` / :class:`RowLen` / :class:`LenMask` /
  :class:`MaskedPtr` so the gathered slot positions are proven inside
  ``[0, nnz)`` — the monotone-pointer refinement.

Everything is a frozen dataclass: structural equality is what the loop
fixpoint tests for stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.kernelver.sym import Affine, Domain

__all__ = [
    "Access",
    "Cell",
    "CellElem",
    "CellElemVal",
    "CellVal",
    "CtxVal",
    "Full",
    "Host",
    "IdxArr",
    "Iv",
    "LenMask",
    "MaskedPtr",
    "MatrixVal",
    "NoneVal",
    "NpVal",
    "Opaque",
    "PlanVal",
    "Pt",
    "PtrVals",
    "Ref",
    "RowLen",
    "SymIv",
    "SymVal",
    "TupleVal",
    "Unknown",
    "dim_hull",
    "dim_text",
    "join_dims",
    "join_values",
]


# ----------------------------------------------------------------------
# Per-dimension index sets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pt:
    """A single index, an affine form (may depend on ``block_id``)."""

    expr: Affine


@dataclass(frozen=True)
class Iv:
    """Some subset of the inclusive interval ``[lo, hi]``."""

    lo: Affine
    hi: Affine


@dataclass(frozen=True)
class Cell:
    """This block's cell of an exact partition of ``[0, total)``.

    ``family`` identifies the partition source — equal families denote
    the *same* per-block set, so cells of one family are cross-block
    disjoint and union-exact.  ``shift`` is an elementwise offset
    (``rows + 1`` touching ``indptr``).
    """

    family: tuple
    total: Affine
    shift: int = 0


@dataclass(frozen=True)
class CellElem:
    """Elements of the block's cell reached by iterating it exhaustively.

    Over the whole loop the accesses cover the cell, so a CellElem
    counts both as cell-subset (bounds, races) and as cell-cover
    (coverage).
    """

    family: tuple
    total: Affine


@dataclass(frozen=True)
class Full:
    """The entire dimension (``[:]`` / ``[...]`` / unindexed trailing dims)."""


@dataclass(frozen=True)
class Unknown:
    """An index the verifier cannot resolve — every proof on it fails."""


def dim_hull(dim, extent: Affine, domain: Domain):
    """Inclusive affine ``(lo, hi)`` hull of one dimension's set.

    Returns ``None`` for :class:`Unknown`.  :class:`Full` hulls to the
    declared extent (in-bounds by construction).
    """
    if isinstance(dim, Pt):
        return (dim.expr, dim.expr)
    if isinstance(dim, Iv):
        return (dim.lo, dim.hi)
    if isinstance(dim, Cell):
        shift = Affine.of(dim.shift)
        return (shift, dim.total - 1 + shift)
    if isinstance(dim, CellElem):
        return (Affine.of(0), dim.total - 1)
    if isinstance(dim, Full):
        return (Affine.of(0), extent - 1)
    return None


def dim_text(dim) -> str:
    """Canonical serialization of one dimension's set (certificate form)."""
    if isinstance(dim, Pt):
        return dim.expr.text()
    if isinstance(dim, Iv):
        return f"[{dim.lo.text()}..{dim.hi.text()}]"
    if isinstance(dim, Cell):
        shift = f"+{dim.shift}" if dim.shift else ""
        return f"cell({'/'.join(map(str, dim.family))}:{dim.total.text()}){shift}"
    if isinstance(dim, CellElem):
        return f"elem({'/'.join(map(str, dim.family))}:{dim.total.text()})"
    if isinstance(dim, Full):
        return ":"
    return "?"


def join_dims(a, b):
    """Least common abstraction of two per-dimension sets."""
    if a == b:
        return a
    pair = {type(a), type(b)}
    if Unknown in pair:
        return Unknown()
    if Full in pair:
        return Full()
    hull_a = dim_hull(a, Affine.of(0), Domain()) if isinstance(a, (Pt, Iv)) else None
    hull_b = dim_hull(b, Affine.of(0), Domain()) if isinstance(b, (Pt, Iv)) else None
    if hull_a and hull_b:
        (alo, ahi), (blo, bhi) = hull_a, hull_b
        if alo.is_const and ahi.is_const and blo.is_const and bhi.is_const:
            return Iv(
                Affine.of(min(alo.const, blo.const)),
                Affine.of(max(ahi.const, bhi.const)),
            )
        if alo == blo and ahi == bhi:
            return Iv(alo, ahi)
    if (
        isinstance(a, (Cell, CellElem))
        and isinstance(b, (Cell, CellElem))
        and a.family == b.family
        and a.total == b.total
        and getattr(a, "shift", 0) == getattr(b, "shift", 0) == 0
    ):
        return Cell(a.family, a.total)
    return Unknown()


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Opaque:
    """A value the verifier does not model (safe: it never indexes devices)."""


@dataclass(frozen=True)
class NoneVal:
    """Literal ``None`` (absent optional parameters)."""


@dataclass(frozen=True)
class SymVal:
    """An integer scalar: an affine form over the domain symbols."""

    expr: Affine


@dataclass(frozen=True)
class SymIv:
    """An integer scalar known only to lie in ``[lo, hi]`` (widened loops)."""

    lo: Affine
    hi: Affine


@dataclass(frozen=True)
class Host:
    """A host-side array or float — free to use, never race-relevant."""


@dataclass(frozen=True)
class IdxArr:
    """A host integer array whose values lie in ``[lo, hi]`` inclusive.

    Produced by gathers through declared index buffers and by the
    monotone-pointer refinement; subscripting a device buffer with it
    touches some subset of ``[lo, hi]``.
    """

    lo: Affine
    hi: Affine


@dataclass(frozen=True)
class TupleVal:
    items: tuple


@dataclass(frozen=True)
class CtxVal:
    """The BlockContext parameter."""


@dataclass(frozen=True)
class NpVal:
    """The numpy module object."""


@dataclass(frozen=True)
class Ref:
    """A device-buffer region: parameter (+ storage field) and consumed dims.

    ``field`` is ``None`` for plain :class:`ArraySpec` parameters, or a
    storage-buffer key (``csr_data`` / ``csr_indices`` / ``csr_indptr``
    / ``dense`` / ``ell_data`` / ``ell_indices``) for buffers unpacked
    from a :class:`MatrixSpec` parameter.
    """

    param: str
    field: str | None = None
    dims: tuple = ()


@dataclass(frozen=True)
class MatrixVal:
    """A DeviceMatrix parameter (declared by a MatrixSpec)."""

    param: str


@dataclass(frozen=True)
class PlanVal:
    """A partition provider (GridPlan): ``vectors_of(block_id)`` → cell."""

    param: str
    total: Affine


@dataclass(frozen=True)
class CellVal:
    """The host integer array holding this block's partition cell."""

    family: tuple
    total: Affine
    shift: int = 0

    def as_dim(self):
        return Cell(self.family, self.total, self.shift)


@dataclass(frozen=True)
class CellElemVal:
    """A scalar obtained by exhaustively iterating a partition cell."""

    family: tuple
    total: Affine

    def as_dim(self):
        return CellElem(self.family, self.total)


@dataclass(frozen=True)
class PtrVals:
    """``indptr[cell + offset]`` — monotone row-pointer values."""

    param: str
    family: tuple
    total: Affine
    offset: int


@dataclass(frozen=True)
class RowLen:
    """``indptr[cell+1] - indptr[cell]`` — per-row stored-entry counts."""

    param: str
    family: tuple
    total: Affine


@dataclass(frozen=True)
class LenMask:
    """Boolean mask ``row_lengths > k`` for an affine ``k``."""

    param: str
    family: tuple
    total: Affine
    k: Affine


@dataclass(frozen=True)
class MaskedPtr:
    """Row starts of the rows whose length exceeds ``k``.

    Adding the same ``k`` lands strictly inside each selected row:
    ``indptr[r] + k < indptr[r+1] <= nnz`` — the refinement that proves
    CSR slot gathers stay inside ``[0, nnz)``.
    """

    param: str
    family: tuple
    total: Affine
    k: Affine


@dataclass(frozen=True)
class Access:
    """One recorded device access of a launch (symbolic, per-block)."""

    param: str
    field: str | None
    dims: tuple
    kind: str  # "read" | "write"
    line: int
    pinned: int | None = None  # block_id the access is guarded to, if any
    #: Domain snapshot at the access site — carries branch-local
    #: refinements (guards, loop bounds) into the proof stage.
    domain: Domain | None = field(default=None, compare=False, repr=False)

    def dims_text(self) -> tuple:
        return tuple(dim_text(dim) for dim in self.dims)


# ----------------------------------------------------------------------
# Value join (loop fixpoint)
# ----------------------------------------------------------------------
def join_values(a, b):
    """Least common abstraction of two values (``Opaque`` at worst)."""
    if a == b:
        return a
    if isinstance(a, (SymVal, SymIv)) and isinstance(b, (SymVal, SymIv)):
        alo, ahi = (a.expr, a.expr) if isinstance(a, SymVal) else (a.lo, a.hi)
        blo, bhi = (b.expr, b.expr) if isinstance(b, SymVal) else (b.lo, b.hi)
        if alo.is_const and ahi.is_const and blo.is_const and bhi.is_const:
            return SymIv(
                Affine.of(min(alo.const, blo.const)),
                Affine.of(max(ahi.const, bhi.const)),
            )
        return Opaque()
    if isinstance(a, Ref) and isinstance(b, Ref):
        if a.param == b.param and a.field == b.field and len(a.dims) == len(b.dims):
            return Ref(
                a.param,
                a.field,
                tuple(join_dims(x, y) for x, y in zip(a.dims, b.dims)),
            )
        return Opaque()
    if isinstance(a, TupleVal) and isinstance(b, TupleVal):
        if len(a.items) == len(b.items):
            return TupleVal(
                tuple(join_values(x, y) for x, y in zip(a.items, b.items))
            )
        return Opaque()
    if isinstance(a, (Host, IdxArr)) and isinstance(b, (Host, IdxArr)):
        if isinstance(a, IdxArr) and isinstance(b, IdxArr):
            if a.lo == b.lo and a.hi == b.hi:
                return a
        return Host()
    return Opaque()
