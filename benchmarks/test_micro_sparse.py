"""Microbenchmarks: measured wall-clock of the sparse substrate.

Real timings of what actually runs in this environment (NumPy host
code), complementing the modeled hardware times of the figure benches.
"""

import numpy as np
import pytest

from repro.lattice import cubic, tight_binding_hamiltonian
from repro.sparse import CSRMatrix
from repro.sparse.sweep import (
    csr_sweep_matmat,
    csr_sweep_matvec,
    ell_sweep_matmat,
    ell_sweep_matvec,
)


@pytest.fixture(scope="module")
def cube10_csr():
    return tight_binding_hamiltonian(cubic(10), format="csr")


@pytest.fixture(scope="module")
def cube20_csr():
    return tight_binding_hamiltonian(cubic(20), format="csr")


@pytest.fixture(scope="module")
def cube10_dense(cube10_csr):
    return cube10_csr.to_dense()


class TestSpMV:
    def test_csr_matvec_d1000(self, benchmark, cube10_csr):
        x = np.random.default_rng(0).standard_normal(1000)
        result = benchmark(cube10_csr.matvec, x)
        assert result.shape == (1000,)

    def test_dense_matvec_d1000(self, benchmark, cube10_dense):
        x = np.random.default_rng(0).standard_normal(1000)
        benchmark(lambda: cube10_dense @ x)

    def test_csr_matmat_d1000_r16(self, benchmark, cube10_csr):
        block = np.random.default_rng(0).standard_normal((1000, 16))
        result = benchmark(cube10_csr.matmat, block)
        assert result.shape == (1000, 16)

    def test_csr_matmat_equals_dense(self, cube10_csr, cube10_dense):
        block = np.random.default_rng(1).standard_normal((1000, 8))
        np.testing.assert_allclose(
            cube10_csr.matmat(block), cube10_dense @ block, atol=1e-10
        )


    def test_ell_matvec_d8000(self, benchmark, cube20_csr):
        ell = cube20_csr.to_ell()
        x = np.random.default_rng(0).standard_normal(8000)
        result = benchmark(ell.matvec, x)
        # Reference: the per-call gather sweep (no compiled plan).
        np.testing.assert_array_equal(
            result, ell_sweep_matvec(ell.data, ell.indices, x)
        )


class TestLanes:
    """The device recursion's lane shapes: k = LANE_ELEMENTS // D columns."""

    def test_csr_sweep_matmat_d1000_k32(self, benchmark, cube10_csr):
        block = np.random.default_rng(0).standard_normal((1000, 32))
        data, indices, plan = cube10_csr.data, cube10_csr.indices, cube10_csr.sweep_plan
        result = benchmark(csr_sweep_matmat, data, indices, plan, block)
        # Columns never mix: each equals its own canonical matvec.
        for j in (0, 31):
            column = csr_sweep_matvec(data, indices, plan, block[:, j].copy())
            np.testing.assert_array_equal(result[:, j], column)

    def test_ell_sweep_matmat_d8000_k4(self, benchmark, cube20_csr):
        ell = cube20_csr.to_ell()
        block = np.random.default_rng(0).standard_normal((8000, 4))
        result = benchmark(
            ell_sweep_matmat, ell.data, ell.indices, block, plan=ell.sweep_plan
        )
        # Reference: the per-call gather sweep (no compiled plan).
        np.testing.assert_array_equal(
            result, ell_sweep_matmat(ell.data, ell.indices, block)
        )

    def test_lane_width_does_not_change_mu_tilde(self, cube10_csr):
        from repro.gpukpm import GpuKPM
        from repro.kpm import KPMConfig, rescale_operator

        scaled, _ = rescale_operator(cube10_csr)
        config = KPMConfig(num_moments=64, num_random_vectors=32, seed=3)
        tables = [
            GpuKPM().run_partition(
                scaled,
                config.with_updates(block_size=block_size),
                first_vector=0,
                num_vectors=config.total_vectors,
            )[0]
            for block_size in (1, 256)
        ]
        assert np.array_equal(tables[0], tables[1])


class TestSymmetry:
    @staticmethod
    def reference(csr, tolerance):
        """The dense formula ``max |A - A.T| <= tol``, evaluated by SciPy."""
        import scipy.sparse as sp

        a = sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
        return bool(max(abs(a - a.T).max(), 0.0) <= tolerance)

    def test_is_symmetric_tol_d8000(self, benchmark, cube20_csr):
        result = benchmark(cube20_csr.is_symmetric, 1e-12)
        assert result is self.reference(cube20_csr, 1e-12) is True
        skewed = CSRMatrix(
            cube20_csr.indptr,
            cube20_csr.indices,
            cube20_csr.data + np.where(cube20_csr.indices == 7, 1e-9, 0.0),
            cube20_csr.shape,
        )
        for tolerance in (1e-12, 1e-9, 2e-9):
            assert skewed.is_symmetric(tolerance) is self.reference(skewed, tolerance)


class TestConstruction:
    def test_build_cubic_hamiltonian(self, benchmark):
        result = benchmark(tight_binding_hamiltonian, cubic(10), format="csr")
        assert result.nnz_stored == 7000

    def test_from_dense_d1000(self, benchmark, cube10_dense):
        result = benchmark(CSRMatrix.from_dense, cube10_dense)
        assert result.nnz_stored == 6000  # zero diagonal dropped by from_dense
