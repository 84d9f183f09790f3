"""RA018 fixtures: ad-hoc contractions on matrix storage buffers.

The products are numerically plausible but bypass the canonical
contraction order of ``repro.sparse.sweep``, so replay across storage
formats would not be bit-identical.  The accesses themselves are
in-bounds and race-free — the kernel *proves* clean under RA016/RA017;
only the contraction route is wrong.
"""

_DOT_CONTRACT = KernelContract(
    symbols={"n": (1, None), "nnz": (0, None)},
    arrays={"x": ArraySpec(extent=("n",), role="in")},
    matrices={"matrix": MatrixSpec("n", "n", nnz="nnz")},
)


@kernel("adhoc_product", contract=_DOT_CONTRACT)
def _adhoc_product_kernel(ctx, matrix, x, n):
    x_host = np.asarray(x.data, dtype=np.float64)
    result = np.dot(matrix.dense, x_host)
    stash = np.asarray(matrix.dense, dtype=np.float64)
    gram = stash @ stash.T
    # NumPy 2 ufuncs: np.matvec is not the canonical DeviceMatrix.matvec.
    rows = np.vecdot(matrix.dense, x_host)
    product = np.matvec(matrix.dense, x_host)
    return result, gram, rows, product


_BLOCK_CONTRACT = KernelContract(
    symbols={"n": (1, None), "nnz": (0, None), "k": (1, None)},
    arrays={"block": ArraySpec(extent=("n", "k"), role="in")},
    matrices={"matrix": MatrixSpec("n", "n", nnz="nnz")},
)


@kernel("adhoc_block_product", contract=_BLOCK_CONTRACT)
def _adhoc_block_kernel(ctx, matrix, block, n):
    lane = np.asarray(block.data, dtype=np.float64)
    return np.asarray(matrix.dense, dtype=np.float64) @ lane


@kernel("canonical_block_product", contract=_BLOCK_CONTRACT)
def _canonical_block_kernel(ctx, matrix, block, n):
    # The canonical block entry point: a lane advanced through matmat.
    lane = np.asarray(block.data, dtype=np.float64)
    return matrix.matmat(lane)
