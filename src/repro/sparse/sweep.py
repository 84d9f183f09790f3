"""The canonical SpMV contraction order shared by every storage format.

**Why an explicit order.**  The autotuner (:mod:`repro.tune`) picks a
storage format *per matrix*; the serving layer guarantees bit-identical
answers for identical requests.  Those two promises are only compatible
if the storage format is purely a *cost/layout* choice and never a
*numerics* choice — so every operator (host and simulated-device alike)
evaluates ``y = A @ x`` in one canonical floating-point order:

    for each row i:  y[i] = ((0 + a_{i,j1} x_{j1}) + a_{i,j2} x_{j2}) + ...

with the stored columns ``j1 < j2 < ...`` ascending (canonical CSR
order) and a strict left-to-right accumulation.  ``np.add.reduceat``
and BLAS ``gemv`` do **not** honor this order (both use
implementation-defined blocking), which is why the sweeps below are
written as explicit slot loops.

**Zero absorption.**  The dense sweep additionally adds the products of
the *unstored* (exactly-zero) entries, and the ELL sweep adds the
products of its padded slots (``data 0.0``, index 0).  Both extras are
``0.0 * x`` terms, i.e. ``+0.0`` or ``-0.0`` for finite ``x``.  IEEE-754
addition absorbs them exactly: ``s + (+/-0.0) == s`` whenever
``s != -0.0``, and a running sum that starts at ``+0.0`` can never reach
``-0.0`` (``a + b`` is ``-0.0`` only when *both* addends are ``-0.0``).
Hence dense, CSR, and ELL sweeps over the same matrix are bit-identical
for finite inputs — the property suite pins this.

**Compiled operands.**  CSR and ELL share one slot schedule,
:class:`SweepPlan`: slot ``k`` is the ``k``-th stored entry of every row
long enough to have one (ELL: every row, padding included).  The values
and columns a slot multiplies never change, so the plan gathers them
*once per matrix* — ``vals = data[positions]``, ``cols =
indices[positions]`` — on the first sweep over raw storage, and marks
the slots that cover every row.  A sweep then costs one
``x[cols]`` gather, one multiply and one add per slot; a full-row slot
accumulates with a contiguous ``out += vals * x[cols]`` instead of a
scatter through ``out[rows]``.  Both paths perform the same
floating-point operations on the same operands, so they are
bit-identical.  The plans live where the storage does
(:class:`~repro.sparse.CSRMatrix`, :class:`~repro.sparse.ELLMatrix` and
the device-side ``DeviceMatrix``) and are built on first use.

**Blocks accumulate in place.**  A block sweep (``matmat``) over real
storage runs each full-row slot as ``np.take(operand, cols, axis=0,
out=buf)``, ``buf *= wide``, ``out += buf`` into one reused gather
buffer: the same products and sums as ``out += vals[:, None] *
operand[cols]``, without the two temporaries (multiplication commutes
exactly in IEEE-754).  ``wide`` is the slot's values repeated to the
block's ``(D, k)`` shape, in their own dtype.  Multiplying by the
broadcast ``vals[:, None]`` instead runs ``D`` inner loops of length
``k``, and at the device lane widths ``k`` is small (4 at ``D = 8000``),
so the dispatch per row costs more than the arithmetic; the widened
values make it one contiguous loop over the same operands.  Only blocks
of at most ``_WIDEN_ELEMENTS`` elements (the device lane size) are
widened; a wider block keeps the broadcast, whose inner loops are long
once ``k`` is.  The compiled operands keep the widened values of the
last widened block width only, so a plan holds at most one lane's worth
per full-row slot (256 KiB per slot in double), rebuilt when the width
changes and dropped with the matrix.  Partial-row slots
keep the scatter through ``out[rows]``.  Columns never mix, so column
``j`` of a block sweep is bit-identical to the matvec of column ``j`` —
which is what lets the device recursion run a block's vectors in
lockstep lanes (:func:`repro.gpukpm.kernels.kpm_recursion_kernel`) with
the moments of the one-vector-at-a-time program.  Only the matrix
product is blocked: each moment is the contiguous 1-D dot of one vector,
taken for a whole lane by one ``np.vecdot`` over contiguous rows (the
same BLAS dot per row), because a strided ``ddot`` or an ``einsum``
reduction sums in another order.  A one-column block runs the vector
loop on its column views.

**Instrumented views take the gather path.**  Under an ambient
:class:`~repro.sanitize.DeviceSanitizer` a device buffer's ``.data`` is
a :class:`~repro.sanitize.view.SanitizedView`, not an ndarray.  The
sweep then gathers through the view on every call, exactly as an
uncompiled sweep would, so the sanitizer still records every read of
the matrix storage in every launch.

**Storage is read-only after construction.**  Compiled operands are
tied to the identity of the arrays they were gathered from and are not
refreshed if those arrays are written in place afterwards; the
operators and the device upload never do so.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "SweepPlan",
    "build_sweep_plan",
    "build_ell_plan",
    "csr_sweep_matvec",
    "csr_sweep_matmat",
    "ell_sweep_matvec",
    "ell_sweep_matmat",
    "dense_sweep_matvec",
    "dense_sweep_matmat",
]


#: Largest block (``D * k`` elements) whose full-row slot values are
#: widened: the device recursion's lane size
#: (:data:`repro.gpukpm.kernels.LANE_ELEMENTS`, 256 KiB in double), the
#: shapes where the gain was measured.  A wider block keeps the
#: broadcast multiply, so widened values never cost more than one lane
#: per full-row slot, whatever block a host caller sweeps.
_WIDEN_ELEMENTS = 2**15


class _CompiledSlots:
    """A plan's operands gathered from one ``data`` / ``indices`` pair.

    ``slots`` holds per-slot ``(rows, vals, cols)`` (``rows`` is
    ``None`` for a slot that covers every row) and ``n_cols`` is one
    past the largest stored column — the operand rows a sweep needs.
    """

    __slots__ = ("slots", "n_cols", "_wide_k", "_wide")

    def __init__(self, slots, n_cols: int):
        self.slots = slots
        self.n_cols = n_cols
        self._wide_k = 0
        self._wide = None

    def widened(self, k: int) -> list:
        """Full-row slot values repeated to ``(n_rows, k)`` (else ``None``).

        Kept for the last block width asked only, so at most one
        block's worth of values per full-row slot is held; the sweep
        asks only for blocks of at most ``_WIDEN_ELEMENTS``.
        """
        if self._wide_k != k:
            self._wide = None  # release the old width before building
            self._wide = [
                np.repeat(vals[:, None], k, axis=1) if rows is None else None
                for rows, vals, _ in self.slots
            ]
            self._wide_k = k
        return self._wide


class SweepPlan:
    """Precomputed slot schedule of a matrix's canonical sweep.

    Slot ``k`` covers the ``k``-th stored entry of every row that has at
    least ``k + 1`` entries: ``rows[k]`` are those row indices and
    ``positions[k]`` the matching flat (row-major) positions into the
    value / index storage.  Total memory is ``O(nnz)`` regardless of
    row skew; the compiled operands add another ``O(nnz)``, and their
    widened values at most ``_WIDEN_ELEMENTS`` per full-row slot.
    """

    __slots__ = ("n_rows", "slots", "_compiled")

    def __init__(self, n_rows: int, slots: list[tuple[np.ndarray, np.ndarray]]):
        self.n_rows = n_rows
        self.slots = slots
        self._compiled = None

    def compiled(self, data, indices):
        """The slots' operands gathered from raw storage.

        Returns a :class:`_CompiledSlots`, gathered on the first call and
        reused while the same ``data`` / ``indices`` arrays are passed.
        Returns ``None`` when either is not a plain ndarray (an
        instrumented view), so the caller gathers through it instead.
        """
        if type(data) is not np.ndarray or type(indices) is not np.ndarray:
            return None
        cached = self._compiled
        if cached is None or cached[0] is not data or cached[1] is not indices:
            flat_data, flat_indices = data.reshape(-1), indices.reshape(-1)
            slots = [
                (
                    None if rows.size == self.n_rows else rows,
                    flat_data[positions],
                    flat_indices[positions],
                )
                for rows, positions in self.slots
            ]
            n_cols = max(
                (int(cols.max()) + 1 for _, _, cols in slots if cols.size), default=0
            )
            cached = self._compiled = (data, indices, _CompiledSlots(slots, n_cols))
        return cached[2]


def build_sweep_plan(indptr: np.ndarray, n_rows: int) -> SweepPlan:
    """Build the slot schedule for a CSR row pointer."""
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.shape[0] != n_rows + 1:
        raise ShapeError(
            f"indptr must have length n_rows+1={n_rows + 1}, got {indptr.shape[0]}"
        )
    row_lengths = np.diff(indptr)
    slots: list[tuple[np.ndarray, np.ndarray]] = []
    width = int(row_lengths.max(initial=0))
    starts = indptr[:-1]
    for k in range(width):
        rows = np.flatnonzero(row_lengths > k)
        slots.append((rows, starts[rows] + k))
    return SweepPlan(n_rows, slots)


def build_ell_plan(n_rows: int, width: int) -> SweepPlan:
    """Build the slot schedule of ``(n_rows, width)`` ELL storage.

    Every slot covers every row (padded slots absorb exactly), so the
    compiled sweep accumulates each slot contiguously.
    """
    n_rows = check_positive_int(n_rows, "n_rows")
    width = check_nonnegative_int(width, "width")
    rows = np.arange(n_rows, dtype=np.int64)
    return SweepPlan(n_rows, [(rows, rows * width + k) for k in range(width)])


def _gather_error(operand, exc: IndexError) -> ShapeError:
    return ShapeError(
        f"operand with {operand.shape[0]} rows is too short for the stored "
        f"columns ({exc})"
    )


def _check_block(block) -> None:
    if block.ndim != 2:
        raise ShapeError(f"block must be 2-D, got shape {block.shape}")


def _sweep_compiled(compiled: _CompiledSlots, out, operand) -> np.ndarray:
    """Accumulate the compiled slots of ``A @ operand`` into ``out``."""
    if operand.shape[0] < compiled.n_cols:
        raise ShapeError(
            f"operand has {operand.shape[0]} rows, the matrix needs {compiled.n_cols}"
        )
    if operand.ndim == 1 or operand.shape[1] == 1:
        # A vector, or a one-column block through its column views: the
        # 1-D loop has the least dispatch per slot.
        vec, acc = (operand, out) if operand.ndim == 1 else (operand[:, 0], out[:, 0])
        for rows, vals, cols in compiled.slots:
            if rows is None:
                acc += vals * vec[cols]
            else:
                acc[rows] += vals * vec[cols]
        return out
    # In place over one gather buffer with widened values (module
    # docstring); indices are in range, so ``take`` skips its
    # bounds-checking copy ("wrap").
    in_place = out.dtype == operand.dtype and out.dtype.kind == "f"
    buf = np.empty_like(out) if in_place else None
    wide = (
        compiled.widened(operand.shape[1])
        if in_place and out.size <= _WIDEN_ELEMENTS
        else None
    )
    for slot, (rows, vals, cols) in enumerate(compiled.slots):
        if rows is None and in_place:
            operand.take(cols, axis=0, out=buf, mode="wrap")
            buf *= vals[:, None] if wide is None else wide[slot]
            out += buf
        elif rows is None:
            out += vals[:, None] * operand[cols]
        else:
            out[rows] += vals[:, None] * operand[cols]
    return out


def csr_sweep_matvec(data, indices, plan: SweepPlan, x) -> np.ndarray:
    """Canonical ``A @ x`` over CSR storage (see module docstring)."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    out = np.zeros(plan.n_rows, dtype=np.result_type(data, x))
    compiled = plan.compiled(data, indices)
    if compiled is not None:
        return _sweep_compiled(compiled, out, x)
    try:
        for rows, positions in plan.slots:
            out[rows] += data[positions] * x[indices[positions]]
    except IndexError as exc:
        raise _gather_error(x, exc) from exc
    return out


def csr_sweep_matmat(data, indices, plan: SweepPlan, block) -> np.ndarray:
    """Canonical ``A @ B`` over CSR storage, column by column independent."""
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    _check_block(block)
    out = np.zeros((plan.n_rows, block.shape[1]), dtype=np.result_type(data, block))
    compiled = plan.compiled(data, indices)
    if compiled is not None:
        return _sweep_compiled(compiled, out, block)
    try:
        for rows, positions in plan.slots:
            out[rows] += data[positions, None] * block[indices[positions], :]
    except IndexError as exc:
        raise _gather_error(block, exc) from exc
    return out


def _ell_compiled(ell_data, ell_indices, plan):
    """Compiled ELL slots, or ``None`` to gather slot column by column."""
    if plan is None:
        return None
    if not isinstance(plan, SweepPlan):
        raise ValidationError(f"plan must be a SweepPlan, got {type(plan).__name__}")
    if (plan.n_rows, len(plan.slots)) != ell_data.shape:
        raise ShapeError(
            f"ELL plan covers ({plan.n_rows}, {len(plan.slots)}) slots, "
            f"storage has shape {ell_data.shape}"
        )
    return plan.compiled(ell_data, ell_indices)


def ell_sweep_matvec(ell_data, ell_indices, x, *, plan=None) -> np.ndarray:
    """Canonical ``A @ x`` over ELL storage (padded slots absorb exactly).

    ``plan`` is the storage's :func:`build_ell_plan` schedule; with it
    the sweep runs on compiled operands, without it (or through an
    instrumented view) it gathers slot column by slot column.
    """
    if ell_data.shape != ell_indices.shape:
        raise ShapeError(
            f"ELL data/indices shapes differ: {ell_data.shape} vs {ell_indices.shape}"
        )
    out = np.zeros(ell_data.shape[0], dtype=np.result_type(ell_data, x))
    compiled = _ell_compiled(ell_data, ell_indices, plan)
    if compiled is not None:
        return _sweep_compiled(compiled, out, x)
    try:
        for k in range(ell_data.shape[1]):
            out += ell_data[:, k] * x[ell_indices[:, k]]
    except IndexError as exc:
        raise _gather_error(x, exc) from exc
    return out


def ell_sweep_matmat(ell_data, ell_indices, block, *, plan=None) -> np.ndarray:
    """Canonical ``A @ B`` over ELL storage (``plan`` as for the matvec)."""
    if ell_data.shape != ell_indices.shape:
        raise ShapeError(
            f"ELL data/indices shapes differ: {ell_data.shape} vs {ell_indices.shape}"
        )
    _check_block(block)
    out = np.zeros(
        (ell_data.shape[0], block.shape[1]), dtype=np.result_type(ell_data, block)
    )
    compiled = _ell_compiled(ell_data, ell_indices, plan)
    if compiled is not None:
        return _sweep_compiled(compiled, out, block)
    try:
        for k in range(ell_data.shape[1]):
            out += ell_data[:, k, None] * block[ell_indices[:, k], :]
    except IndexError as exc:
        raise _gather_error(block, exc) from exc
    return out


def _check_operand(array, operand) -> None:
    if operand.shape[0] != array.shape[1]:
        raise ShapeError(
            f"operand has {operand.shape[0]} rows, the matrix has "
            f"{array.shape[1]} columns"
        )


def dense_sweep_matvec(array, x) -> np.ndarray:
    """Canonical ``A @ x`` over dense storage (every column, ascending)."""
    if array.ndim != 2:
        raise ShapeError(f"array must be 2-D, got shape {array.shape}")
    _check_operand(array, x)
    out = np.zeros(array.shape[0], dtype=np.result_type(array, x))
    for j in range(array.shape[1]):
        out += array[:, j] * x[j]
    return out


def dense_sweep_matmat(array, block) -> np.ndarray:
    """Canonical ``A @ B`` over dense storage."""
    if array.ndim != 2:
        raise ShapeError(f"array must be 2-D, got shape {array.shape}")
    _check_block(block)
    _check_operand(array, block)
    out = np.zeros((array.shape[0], block.shape[1]), dtype=np.result_type(array, block))
    for j in range(array.shape[1]):
        out += array[:, j, None] * block[j, :]
    return out
