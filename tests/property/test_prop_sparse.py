"""Property-based tests for the sparse substrate (hypothesis).

Invariants: CSR<->COO<->dense conversions are exact, SpMV/SpMM agree with
dense arithmetic for arbitrary sparsity patterns (including empty rows,
empty matrices, and duplicate COO entries), transposition is an
involution, and Gerschgorin helpers match their dense definitions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.sweep import csr_sweep_matmat, csr_sweep_matvec


def sparse_dense_arrays(max_dim=12):
    """Random dense float arrays with many exact zeros."""
    shapes = st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    )
    return shapes.flatmap(
        lambda shape: npst.arrays(
            np.float64,
            shape,
            elements=st.one_of(
                st.just(0.0),
                st.just(0.0),
                st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64),
            ),
        )
    )


@st.composite
def coo_triplets(draw, max_dim=10, max_entries=30):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, max_entries))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=count, max_size=count)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=count, max_size=count)
    )
    values = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=64),
            min_size=count,
            max_size=count,
        )
    )
    return COOMatrix(rows, cols, values, (n_rows, n_cols))


class TestConversionRoundtrips:
    @given(dense=sparse_dense_arrays())
    @settings(max_examples=60)
    def test_from_dense_roundtrip(self, dense):
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr.to_dense(), dense)

    @given(coo=coo_triplets())
    @settings(max_examples=60)
    def test_coo_csr_dense_agree(self, coo):
        np.testing.assert_allclose(
            coo.to_csr().to_dense(), coo.to_dense(), atol=1e-12
        )

    @given(coo=coo_triplets())
    @settings(max_examples=60)
    def test_transpose_involution(self, coo):
        csr = coo.to_csr()
        np.testing.assert_array_equal(
            csr.transpose().transpose().to_dense(), csr.to_dense()
        )

    @given(coo=coo_triplets())
    @settings(max_examples=60)
    def test_sum_duplicates_preserves_dense(self, coo):
        np.testing.assert_allclose(
            coo.sum_duplicates().to_dense(), coo.to_dense(), atol=1e-12
        )


class TestLinearAlgebraAgainstDense:
    @given(dense=sparse_dense_arrays(), data=st.data())
    @settings(max_examples=60)
    def test_matvec(self, dense, data):
        x = data.draw(
            npst.arrays(
                np.float64,
                dense.shape[1],
                elements=st.floats(-3, 3, allow_nan=False, width=64),
            )
        )
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.matvec(x), dense @ x, atol=1e-9)

    @given(dense=sparse_dense_arrays(max_dim=8), data=st.data())
    @settings(max_examples=40)
    def test_matmat(self, dense, data):
        k = data.draw(st.integers(1, 4))
        block = data.draw(
            npst.arrays(
                np.float64,
                (dense.shape[1], k),
                elements=st.floats(-3, 3, allow_nan=False, width=64),
            )
        )
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.matmat(block), dense @ block, atol=1e-9)

    @given(dense=sparse_dense_arrays())
    @settings(max_examples=40)
    def test_scale_shift(self, dense):
        if dense.shape[0] != dense.shape[1]:
            dense = dense[: min(dense.shape), : min(dense.shape)]
        csr = CSRMatrix.from_dense(dense)
        out = csr.scale_shift(0.5, 2.0)
        np.testing.assert_allclose(
            out.to_dense(), 0.5 * dense + 2.0 * np.eye(dense.shape[0]), atol=1e-12
        )


class TestSpectralHelpers:
    @given(dense=sparse_dense_arrays())
    @settings(max_examples=40)
    def test_gerschgorin_ingredients(self, dense):
        if dense.shape[0] != dense.shape[1]:
            n = min(dense.shape)
            dense = dense[:n, :n]
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.diagonal(), np.diag(dense), atol=1e-12)
        expected = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
        np.testing.assert_allclose(csr.offdiag_abs_row_sums(), expected, atol=1e-12)

    @given(dense=sparse_dense_arrays())
    @settings(max_examples=40)
    def test_symmetrized_is_symmetric(self, dense):
        if dense.shape[0] != dense.shape[1]:
            n = min(dense.shape)
            dense = dense[:n, :n]
        sym = dense + dense.T
        assert CSRMatrix.from_dense(sym).is_symmetric(tolerance=1e-12)

    @given(dense=sparse_dense_arrays(), data=st.data())
    @settings(max_examples=60)
    def test_is_symmetric_matches_dense_formula(self, dense, data):
        n = min(dense.shape)
        dense = dense[:n, :n]
        if data.draw(st.booleans()):
            dense = dense + dense.T  # mostly symmetric: tolerances bite
            i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            dense[i, j] += data.draw(st.floats(-1e-3, 1e-3, width=64))
        tol = data.draw(
            st.one_of(st.floats(1e-12, 20.0), st.sampled_from([1e-3, 2.0**-20]))
        )
        reference = bool(np.max(np.abs(dense - dense.T), initial=0.0) <= tol)
        assert CSRMatrix.from_dense(dense).is_symmetric(tol) is reference


@st.composite
def uneven_symmetric_csr(draw, max_dim=24):
    """Random symmetric CSR whose rows differ in length (partial-row slots)."""
    dim = draw(st.integers(3, max_dim))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Per-row densities spread the row lengths.  A dense first column
    # makes row 0 full, and the last row keeps only its column-0 bond
    # and diagonal, so some slots always cover only part of the rows.
    density = rng.random(dim)[:, None] ** 2
    lower = np.where(
        rng.random((dim, dim)) < density, rng.standard_normal((dim, dim)), 0.0
    )
    lower[:, 0] = rng.standard_normal(dim) + 4.0
    lower[-1, 1:] = 0.0
    dense = np.tril(lower, k=-1)
    dense = dense + dense.T + np.diag(rng.standard_normal(dim))
    return CSRMatrix.from_dense(dense)


class TestBlockSweepColumns:
    @given(
        csr=uneven_symmetric_csr(),
        width=st.integers(1, 9),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from((np.float64, np.float32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_sweep_equals_column_matvecs(self, csr, width, seed, dtype):
        data, plan = csr.data.astype(dtype), csr.sweep_plan
        assert any(rows.size < csr.shape[0] for rows, _ in plan.slots)
        block = np.random.default_rng(seed).standard_normal((csr.shape[0], width))
        block = block.astype(dtype)
        swept = csr_sweep_matmat(data, csr.indices, plan, block)
        for j in range(width):
            column = csr_sweep_matvec(data, csr.indices, plan, block[:, j].copy())
            assert swept[:, j].tobytes() == column.tobytes()
