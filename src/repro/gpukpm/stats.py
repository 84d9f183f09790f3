"""Launch geometry and work accounting shared by execution and estimation.

The functional pipeline (:mod:`repro.gpukpm.pipeline`) and the analytic
estimator (:mod:`repro.gpukpm.estimator`) must price *exactly* the same
launch schedule — the tests pin their equality.  Both therefore build
their grids with :func:`plan_grid` and their per-launch
:class:`~repro.gpu.KernelStats` with the functions here.

Work accounting per random vector (``D = H_SIZE``, ``N`` moments):

=============  ==========================  =============================
phase          FLOPs                        global traffic (bytes)
=============  ==========================  =============================
RNG            ``4 D``                      write ``8 D``
matvec (x N-1) dense ``2 D^2``              read ``8 D^2 + 8 D``, write ``8 D``
               CSR ``2 nnz``                read ``16 nnz + 8(D+1) + 8 D``, write ``8 D``
axpy  (x N-1)  ``2 D``                      read ``16 D``, write ``8 D``
dot   (x N)    ``2 D``                      read ``16 D``, write ``8``
=============  ==========================  =============================

The dense matvec is charged with ``coalescing = 0.5``: the paper's
row-per-thread sweep over a row-major matrix produces strided (partially
coalesced) loads, one of the documented reasons its measured speedup sits
near 4x rather than at the bandwidth ratio.

Every function accepts either the legacy ``nnz`` switch (dense vs scalar
CSR, the table above) or an explicit :class:`repro.gpukpm.spmv.SpmvModel`
via ``spmv=`` — the format-aware accounting the autotuner scores.  For a
uniform-row, narrow-band matrix the ``csr`` model reproduces the legacy
CSR numbers exactly, so the two paths agree where they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LaunchError, ValidationError
from repro.gpu.kernel import KernelStats
from repro.gpu.spec import GpuSpec
from repro.util.validation import check_positive_int

__all__ = [
    "GridPlan",
    "plan_grid",
    "per_vector_recursion_stats",
    "per_vector_resume_stats",
    "recursion_footprint_bytes",
    "recursion_launch_stats",
    "reduce_launch_stats",
    "DENSE_MATVEC_COALESCING",
    "CSR_MATVEC_COALESCING",
]

_FLOAT = 8
_INDEX = 8
_RNG_FLOPS_PER_ELEMENT = 4.0

#: Achievable bandwidth fraction of the row-per-thread dense sweep.
DENSE_MATVEC_COALESCING = 0.5
#: Achievable bandwidth fraction of the CSR gather.
CSR_MATVEC_COALESCING = 0.7


@dataclass(frozen=True)
class GridPlan:
    """Launch geometry of the paper's decomposition.

    ``num_blocks = ceil(total_vectors / block_size)`` (paper Sec. III-A;
    the paper assumes divisibility, we allow a ragged last block).
    ``vectors_of(block)`` gives the contiguous vector range a block owns.
    """

    total_vectors: int
    block_size: int
    num_blocks: int

    def vectors_of(self, block_id: int) -> range:
        """The vector indices owned by ``block_id``."""
        if not 0 <= block_id < self.num_blocks:
            raise ValidationError(
                f"block_id {block_id} out of range for {self.num_blocks} blocks"
            )
        start = block_id * self.block_size
        return range(start, min(start + self.block_size, self.total_vectors))

    def lanes_of(self, block_id: int, width: int) -> list[range]:
        """``vectors_of(block_id)`` cut into consecutive lanes of ``width``.

        The lanes are disjoint, in order, and cover the block's vectors
        exactly; only the last may be narrower.
        """
        width = check_positive_int(width, "width")
        vectors = self.vectors_of(block_id)
        return [vectors[i : i + width] for i in range(0, len(vectors), width)]


def plan_grid(total_vectors: int, block_size: int, spec: GpuSpec) -> GridPlan:
    """Build the launch geometry, validating against device limits."""
    total_vectors = check_positive_int(total_vectors, "total_vectors")
    block_size = check_positive_int(block_size, "block_size")
    if block_size > spec.max_threads_per_block:
        raise LaunchError(
            f"BLOCK_SIZE {block_size} exceeds the device limit of "
            f"{spec.max_threads_per_block} threads per block"
        )
    return GridPlan(
        total_vectors=total_vectors,
        block_size=block_size,
        num_blocks=math.ceil(total_vectors / block_size),
    )


def _itemsize(precision: str) -> int:
    if precision == "double":
        return 8
    if precision == "single":
        return 4
    raise ValidationError(f"precision must be 'double' or 'single', got {precision!r}")


def _matvec_terms(dim: int, item: int, nnz, spmv):
    """Per-matvec (flops, read_bytes, coalescing, format_efficiency).

    ``spmv`` (an :class:`repro.gpukpm.spmv.SpmvModel`) takes precedence
    over the legacy ``nnz`` switch; passing both is an error.
    """
    if spmv is not None:
        if nnz is not None:
            raise ValidationError("pass either nnz or spmv, not both")
        return (
            spmv.flops_per_matvec,
            spmv.read_bytes_per_matvec,
            spmv.coalescing,
            spmv.thread_efficiency,
        )
    vec_bytes = dim * item
    if nnz is None:
        return 2.0 * dim * dim, dim * dim * item + vec_bytes, DENSE_MATVEC_COALESCING, 1.0
    nnz = check_positive_int(nnz, "nnz")
    return (
        2.0 * nnz,
        nnz * (item + _INDEX) + (dim + 1) * _INDEX + vec_bytes,
        CSR_MATVEC_COALESCING,
        1.0,
    )


def per_vector_recursion_stats(
    dimension: int,
    num_moments: int,
    *,
    nnz: int | None = None,
    spmv=None,
    block_size: int | None = None,
    precision: str = "double",
) -> KernelStats:
    """Work of the full N-order recursion for ONE random vector.

    ``nnz=None`` selects the dense path (the paper's measured runs);
    ``spmv`` selects an explicit per-format model instead.
    ``block_size`` sets the thread efficiency: in the paper's design the
    block's threads tile the ``H_SIZE`` vector elements, so a block wider
    than the vector idles its excess lanes.  ``precision`` scales every
    floating-point byte count (index arrays stay 8-byte).  Returned
    stats carry no footprint (set at launch level).
    """
    dim = check_positive_int(dimension, "dimension")
    n = check_positive_int(num_moments, "num_moments")
    item = _itemsize(precision)
    if block_size is None:
        thread_efficiency = 1.0
    else:
        block_size = check_positive_int(block_size, "block_size")
        thread_efficiency = min(1.0, dim / block_size)
    steps = n - 1
    vec_bytes = dim * item

    flops = _RNG_FLOPS_PER_ELEMENT * dim  # RNG
    read = 0.0
    write = float(vec_bytes)  # RNG output
    matvec_flops, matvec_read, coalescing, fmt_efficiency = _matvec_terms(
        dim, item, nnz, spmv
    )
    flops += steps * (matvec_flops + 2.0 * dim)          # matvec + axpy
    read += steps * (matvec_read + 2.0 * vec_bytes)      # matvec + axpy reads
    write += steps * 2.0 * vec_bytes                     # matvec out + axpy out
    flops += n * 2.0 * dim                               # dots
    read += n * 2.0 * vec_bytes
    write += n * item
    return KernelStats(
        flops=flops,
        gmem_read_bytes=read,
        gmem_write_bytes=write,
        coalescing=coalescing,
        thread_efficiency=thread_efficiency * fmt_efficiency,
        precision=precision,
    )


def per_vector_resume_stats(
    dimension: int,
    start_moment: int,
    num_moments: int,
    *,
    nnz: int | None = None,
    spmv=None,
    block_size: int | None = None,
    precision: str = "double",
) -> KernelStats:
    """Work of resuming the recursion from order ``start_moment`` for ONE vector.

    The resume launch regenerates ``|r>`` from its Philox stream (the
    random vector is a pure function of its index — cheaper than
    round-tripping it through PCIe), loads the two checkpointed
    recursion vectors ``r_{start-2}, r_{start-1}`` from the uploaded
    state buffer, then runs ``num_moments - start_moment`` recursion
    steps (matvec + axpy + dot each).  ``start_moment >= 2`` because the
    three-term recursion needs two prior vectors.
    """
    dim = check_positive_int(dimension, "dimension")
    n = check_positive_int(num_moments, "num_moments")
    start = check_positive_int(start_moment, "start_moment")
    if start < 2:
        raise ValidationError(
            f"start_moment must be >= 2 (two recursion vectors are "
            f"checkpointed), got {start}"
        )
    if start >= n:
        raise ValidationError(
            f"resume needs num_moments > start_moment, got {n} <= {start}"
        )
    item = _itemsize(precision)
    if block_size is None:
        thread_efficiency = 1.0
    else:
        block_size = check_positive_int(block_size, "block_size")
        thread_efficiency = min(1.0, dim / block_size)
    steps = n - start
    vec_bytes = dim * item

    flops = _RNG_FLOPS_PER_ELEMENT * dim  # RNG (regenerate |r>)
    read = 2.0 * vec_bytes  # checkpointed r_{start-2}, r_{start-1}
    write = float(vec_bytes)  # RNG output
    matvec_flops, matvec_read, coalescing, fmt_efficiency = _matvec_terms(
        dim, item, nnz, spmv
    )
    flops += steps * (matvec_flops + 2.0 * dim)          # matvec + axpy
    read += steps * (matvec_read + 2.0 * vec_bytes)      # matvec + axpy reads
    write += steps * 2.0 * vec_bytes                     # matvec out + axpy out
    flops += steps * 2.0 * dim                           # dots (new orders only)
    read += steps * 2.0 * vec_bytes
    write += steps * item
    return KernelStats(
        flops=flops,
        gmem_read_bytes=read,
        gmem_write_bytes=write,
        coalescing=coalescing,
        thread_efficiency=thread_efficiency * fmt_efficiency,
        precision=precision,
    )


def recursion_footprint_bytes(
    dimension: int,
    plan: GridPlan,
    spec: GpuSpec,
    *,
    nnz: int | None = None,
    spmv=None,
    precision: str = "double",
) -> float:
    """Working set of the recursion launch for the L2-reuse decision.

    The matrix is shared by all blocks; each *active* block adds its
    4-vector workspace (paper Sec. III-B2).
    """
    dim = check_positive_int(dimension, "dimension")
    item = _itemsize(precision)
    if spmv is not None:
        if nnz is not None:
            raise ValidationError("pass either nnz or spmv, not both")
        matrix_bytes = spmv.matrix_bytes
    elif nnz is None:
        matrix_bytes = dim * dim * item
    else:
        matrix_bytes = nnz * (item + _INDEX) + (dim + 1) * _INDEX
    active_blocks = min(plan.num_blocks, spec.sm_count)
    return matrix_bytes + active_blocks * 4.0 * dim * item


def recursion_launch_stats(
    dimension: int,
    num_moments: int,
    plan: GridPlan,
    spec: GpuSpec,
    *,
    nnz: int | None = None,
    spmv=None,
    precision: str = "double",
) -> KernelStats:
    """Aggregate stats of the whole recursion launch (all vectors)."""
    dimension = check_positive_int(dimension, "dimension")
    num_moments = check_positive_int(num_moments, "num_moments")
    per_vector = per_vector_recursion_stats(
        dimension,
        num_moments,
        nnz=nnz,
        spmv=spmv,
        block_size=plan.block_size,
        precision=precision,
    )
    return KernelStats(
        flops=per_vector.flops * plan.total_vectors,
        gmem_read_bytes=per_vector.gmem_read_bytes * plan.total_vectors,
        gmem_write_bytes=per_vector.gmem_write_bytes * plan.total_vectors,
        footprint_bytes=recursion_footprint_bytes(
            dimension, plan, spec, nnz=nnz, spmv=spmv, precision=precision
        ),
        coalescing=per_vector.coalescing,
        thread_efficiency=per_vector.thread_efficiency,
        precision=precision,
    )


def reduce_launch_stats(
    num_moments: int, total_vectors: int, *, precision: str = "double"
) -> KernelStats:
    """Stats of the moment-reduction launch (paper Fig. 4b).

    One thread per moment order; each sums ``total_vectors`` partial
    moments from global memory.
    """
    n = check_positive_int(num_moments, "num_moments")
    v = check_positive_int(total_vectors, "total_vectors")
    item = _itemsize(precision)
    return KernelStats(
        flops=float(n * v),
        gmem_read_bytes=float(n * v * item),
        gmem_write_bytes=float(n * item),
        footprint_bytes=float(n * v * item),
        coalescing=1.0,
        precision=precision,
    )
