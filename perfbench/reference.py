"""Independent references the benchmark checks the program against.

They use SciPy's sparse matrix product, not the program's sweep, so a
defect in the program's recursion cannot hide in its own reference.
Only the inputs are shared: the Hamiltonian's stored entries and the
random start vectors of ``repro.kpm.random_block``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Largest allowed |mu_program - mu_reference| for trace-normalized
#: moments (|mu_n| <= 1).  The two sides sum in different orders, so
#: they agree to rounding, about 1e-14 at N=256; 1e-10 leaves margin
#: and still catches any wrong term.
MOMENT_TOLERANCE = 1e-10

#: Relative tolerance of the rescaling (a, b) against the Gerschgorin
#: interval computed here.
RESCALE_TOLERANCE = 1e-12

#: Largest allowed |values - direct| of a served gateway answer, relative
#: to max(1, max|direct|).
ANSWER_TOLERANCE = 1e-10


def to_scipy(csr) -> sp.csr_matrix:
    """The program's CSR storage as a SciPy matrix."""
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def gerschgorin_rescaling(matrix: sp.csr_matrix, epsilon: float):
    """(scale, shift) mapping the Gerschgorin interval into [-1, 1]."""
    diagonal = matrix.diagonal()
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diagonal)
    low = float(np.min(diagonal - radius))
    high = float(np.max(diagonal + radius))
    return (high - low) / 2.0 * (1.0 + epsilon), (high + low) / 2.0


def chebyshev_moments(matrix: sp.csr_matrix, scale, shift, block, num_moments):
    """Trace-normalized moments mean_r <r|T_n(H~)|r> / D over the block."""
    dim = matrix.shape[0]
    scaled = ((matrix - shift * sp.identity(dim, format="csr")) / scale).tocsr()
    mu = np.empty(num_moments)
    prev = block
    mu[0] = np.sum(block * block)
    cur = scaled @ block
    mu[1] = np.sum(block * cur)
    for n in range(2, num_moments):
        prev, cur = cur, 2.0 * (scaled @ cur) - prev
        mu[n] = np.sum(block * cur)
    return mu / (block.shape[1] * dim)
