"""Operator protocol and coercion helpers.

The KPM engines accept "anything matrix-like": a raw ``ndarray``, a
:class:`~repro.sparse.CSRMatrix`, a :class:`~repro.sparse.COOMatrix`, or a
:class:`~repro.sparse.DenseOperator`.  :func:`as_operator` normalizes these
into the common protocol.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ShapeError, ValidationError

__all__ = ["LinearOperatorProtocol", "as_operator", "is_operator"]


@runtime_checkable
class LinearOperatorProtocol(Protocol):
    """Structural type implemented by all matrix representations here."""

    shape: tuple[int, int]

    @property
    def nnz_stored(self) -> int: ...

    @property
    def nbytes(self) -> int: ...

    def matvec(self, x) -> np.ndarray: ...

    def matmat(self, block) -> np.ndarray: ...

    def to_dense(self) -> np.ndarray: ...

    def diagonal(self) -> np.ndarray: ...

    def offdiag_abs_row_sums(self) -> np.ndarray: ...


def is_operator(obj) -> bool:  # repro: noqa[RA005] -- pure predicate, never raises
    """True if ``obj`` already implements the operator protocol."""
    return isinstance(obj, LinearOperatorProtocol)


def as_operator(matrix, *, require_square: bool = True):
    """Coerce ``matrix`` into the library's operator protocol.

    Parameters
    ----------
    matrix:
        ``ndarray`` (wrapped in :class:`~repro.sparse.DenseOperator`),
        :class:`~repro.sparse.COOMatrix` (converted to CSR), or an object
        already implementing the protocol (returned as-is).
    require_square:
        Reject non-square operators — the KPM needs a Hamiltonian.
    """
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.dense import DenseOperator
    from repro.sparse.ell import ELLMatrix

    # The exact-type test keeps the runtime-Protocol isinstance (which
    # walks the protocol's attributes) off the per-request path.
    if type(matrix) in (CSRMatrix, ELLMatrix, DenseOperator):
        op = matrix
    elif isinstance(matrix, COOMatrix):
        op = matrix.to_csr()
    elif is_operator(matrix):
        op = matrix
    elif isinstance(matrix, (np.ndarray, list, tuple)) or hasattr(matrix, "__array__"):
        # DenseOperator pins float64 (and rejects complex) via
        # as_float64_array, so no conversion is needed here.
        op = DenseOperator(matrix)
    else:
        raise ValidationError(
            "matrix must be an ndarray, COOMatrix, CSRMatrix, DenseOperator, "
            f"or operator-protocol object; got {type(matrix).__name__}"
        )
    if require_square and op.shape[0] != op.shape[1]:
        raise ShapeError(f"operator must be square, got shape {op.shape}")
    return op
