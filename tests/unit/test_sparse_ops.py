"""Unit tests for repro.sparse.ops (protocol coercion)."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.sparse import COOMatrix, CSRMatrix, DenseOperator, as_operator, is_operator


class TestAsOperator:
    def test_ndarray_wraps_dense(self):
        op = as_operator(np.eye(3))
        assert isinstance(op, DenseOperator)

    def test_csr_passthrough(self):
        csr = CSRMatrix.identity(3)
        assert as_operator(csr) is csr

    def test_dense_passthrough(self):
        dense = DenseOperator(np.eye(2))
        assert as_operator(dense) is dense

    def test_ell_passthrough(self):
        ell = CSRMatrix.identity(3).to_ell()
        assert as_operator(ell) is ell

    def test_other_protocol_objects_pass_through(self):
        class SubclassedCSR(CSRMatrix):
            __slots__ = ()

        identity = CSRMatrix.identity(3)
        sub = SubclassedCSR(identity.indptr, identity.indices, identity.data, (3, 3))
        assert as_operator(sub) is sub

        class DuckOperator:
            shape = (2, 2)
            nnz_stored = 2
            nbytes = 32

            def matvec(self, x):
                return x

            def matmat(self, block):
                return block

            def to_dense(self):
                return np.eye(2)

            def diagonal(self):
                return np.ones(2)

            def offdiag_abs_row_sums(self):
                return np.zeros(2)

        duck = DuckOperator()
        assert as_operator(duck) is duck

    def test_coo_converted_to_csr(self):
        coo = COOMatrix([0], [0], [1.0], (2, 2))
        op = as_operator(coo)
        assert isinstance(op, CSRMatrix)

    def test_list_input(self):
        op = as_operator([[1.0, 0.0], [0.0, 1.0]])
        assert op.shape == (2, 2)

    def test_rejects_nonsquare_by_default(self):
        with pytest.raises(ShapeError):
            as_operator(np.ones((2, 3)))

    def test_allows_nonsquare_when_asked(self):
        op = as_operator(np.ones((2, 3)), require_square=False)
        assert op.shape == (2, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            as_operator("not a matrix")


class TestIsOperator:
    def test_true_for_library_types(self):
        assert is_operator(CSRMatrix.identity(2))
        assert is_operator(DenseOperator(np.eye(2)))

    def test_false_for_ndarray(self):
        assert not is_operator(np.eye(2))
