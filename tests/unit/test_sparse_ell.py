"""Unit tests for ELL storage (repro.sparse.ell)."""

import weakref

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.gpu import Device, tiny_test_device
from repro.gpukpm import kernels
from repro.gpukpm.kernels import DeviceMatrix
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.sanitize import DeviceSanitizer
from repro.sparse import CSRMatrix, ELLMatrix
from repro.sparse.sweep import (
    _WIDEN_ELEMENTS,
    build_ell_plan,
    csr_sweep_matmat,
    csr_sweep_matvec,
    dense_sweep_matmat,
    dense_sweep_matvec,
    ell_sweep_matmat,
    ell_sweep_matvec,
)


def sample_dense():
    return np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ]
    )


class TestConstruction:
    def test_from_csr_roundtrip(self):
        dense = sample_dense()
        ell = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
        np.testing.assert_array_equal(ell.to_dense(), dense)
        assert ell.width == 3
        assert ell.nnz_stored == 10
        assert ell.shape == (4, 4)

    def test_from_dense_matches_from_csr(self):
        dense = sample_dense()
        via_csr = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
        direct = ELLMatrix.from_dense(dense)
        assert direct.fingerprint() == via_csr.fingerprint()

    def test_to_ell_method_on_csr(self):
        csr = CSRMatrix.from_dense(sample_dense())
        ell = csr.to_ell()
        assert isinstance(ell, ELLMatrix)
        np.testing.assert_array_equal(ell.to_dense(), csr.to_dense())

    def test_to_csr_drops_padding(self):
        csr = CSRMatrix.from_dense(sample_dense())
        back = csr.to_ell().to_csr()
        np.testing.assert_array_equal(back.indptr, csr.indptr)
        np.testing.assert_array_equal(back.indices, csr.indices)
        np.testing.assert_array_equal(back.data, csr.data)

    def test_empty_rows_pack_as_padding(self):
        dense = np.zeros((3, 3))
        dense[1, 2] = 5.0
        ell = ELLMatrix.from_dense(dense)
        assert ell.width == 1
        assert ell.nnz_stored == 1
        np.testing.assert_array_equal(ell.row_nnz, [0, 1, 0])
        np.testing.assert_array_equal(ell.to_dense(), dense)

    def test_all_zero_matrix_has_zero_width(self):
        ell = ELLMatrix.from_dense(np.zeros((3, 3)))
        assert ell.width == 0
        assert ell.nnz_stored == 0
        np.testing.assert_array_equal(ell.to_dense(), np.zeros((3, 3)))


class TestValidation:
    def test_rejects_non_csr_in_from_csr(self):
        with pytest.raises(ValidationError, match="CSRMatrix"):
            ELLMatrix.from_csr(sample_dense())

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            ELLMatrix(np.zeros((2, 1)), np.zeros((2, 1)), [1, 1], (2, 2, 2))

    def test_rejects_row_nnz_above_width(self):
        with pytest.raises(ValidationError, match="row_nnz"):
            ELLMatrix(np.ones((2, 1)), np.zeros((2, 1)), [2, 1], (2, 2))

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValidationError, match="column index"):
            ELLMatrix(np.ones((2, 1)), [[0], [5]], [1, 1], (2, 2))

    def test_rejects_unsorted_stored_indices(self):
        data = np.ones((1, 2))
        indices = np.array([[1, 0]])
        with pytest.raises(ValidationError, match="strictly increasing"):
            ELLMatrix(data, indices, [2], (1, 2))

    def test_rejects_dirty_padding(self):
        data = np.array([[1.0, 7.0]])
        indices = np.array([[0, 0]])
        with pytest.raises(ValidationError, match="padded slots"):
            ELLMatrix(data, indices, [1], (1, 2))

    def test_rejects_nonfinite_data(self):
        with pytest.raises(ValidationError, match="finite"):
            ELLMatrix([[np.inf]], [[0]], [1], (1, 1))

    def test_matvec_shape_check(self):
        ell = ELLMatrix.from_dense(sample_dense())
        with pytest.raises(ShapeError):
            ell.matvec(np.ones(3))
        with pytest.raises(ShapeError):
            ell.matmat(np.ones((3, 2)))


class TestStats:
    def test_padding_fraction_uniform_rows_is_zero(self):
        # Periodic cubic lattice: every row stores onsite + 6 neighbours.
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        assert csr.to_ell().padding_fraction == 0.0

    def test_padding_fraction_counts_empty_slots(self):
        ell = ELLMatrix.from_dense(sample_dense())
        # 4 rows x width 3 = 12 slots, 10 stored.
        assert ell.padding_fraction == pytest.approx(2.0 / 12.0)

    def test_max_row_nnz(self):
        ell = ELLMatrix.from_dense(sample_dense())
        assert ell.max_row_nnz == 3

    def test_nbytes_includes_padding(self):
        ell = ELLMatrix.from_dense(sample_dense())
        assert ell.nbytes == 4 * 3 * (8 + 8)

    def test_fingerprint_distinguishes_values(self):
        a = ELLMatrix.from_dense(sample_dense())
        perturbed = sample_dense()
        perturbed[0, 0] = 3.0
        b = ELLMatrix.from_dense(perturbed)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == ELLMatrix.from_dense(sample_dense()).fingerprint()


class TestLinearAlgebra:
    def test_matvec_bit_identical_to_csr(self):
        csr = tight_binding_hamiltonian(chain(17), format="csr")
        ell = csr.to_ell()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(17)
        np.testing.assert_array_equal(ell.matvec(x), csr.matvec(x))

    def test_matmat_bit_identical_to_csr(self):
        csr = tight_binding_hamiltonian(cubic(3), format="csr")
        ell = csr.to_ell()
        rng = np.random.default_rng(4)
        block = rng.standard_normal((27, 3))
        np.testing.assert_array_equal(ell.matmat(block), csr.matmat(block))

    def test_dot_and_matmul_dispatch(self):
        ell = ELLMatrix.from_dense(sample_dense())
        x = np.arange(4.0)
        np.testing.assert_array_equal(ell.dot(x), ell.matvec(x))
        np.testing.assert_array_equal(ell @ x, ell.matvec(x))
        with pytest.raises(ShapeError):
            ell.dot(np.ones((2, 2, 2)))


class _Uncompiled(np.ndarray):
    """Storage that is not a plain ndarray: the sweep gathers per call."""


def ragged_csr(seed=0, n=40):
    """Random CSR with empty rows, one long row, and a subnormal entry."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    dense[::7] = 0.0  # empty rows
    dense[5] = rng.standard_normal(n)  # one long row
    dense[9, :3] = [1.5, -1.5, 2.0**-1074]
    return CSRMatrix.from_dense(dense)


def full_row_csr(seed=0, n=40):
    """``ragged_csr`` plus two diagonals: slots 0-1 cover every row."""
    rng = np.random.default_rng(seed)
    dense = ragged_csr(seed, n).to_dense()
    diagonal = np.arange(n)
    dense[diagonal, diagonal] = rng.standard_normal(n)
    dense[diagonal, (diagonal + 1) % n] = rng.standard_normal(n)
    return CSRMatrix.from_dense(dense)


def compiled_sweeps(csr, fmt, dtype):
    """Block and vector sweeps over ``csr`` stored as ``fmt`` in ``dtype``."""
    if fmt == "csr":
        data, indices, plan = csr.data.astype(dtype), csr.indices, csr.sweep_plan
        return (
            lambda block: csr_sweep_matmat(data, indices, plan, block),
            lambda x: csr_sweep_matvec(data, indices, plan, x),
        )
    ell = csr.to_ell()
    data, indices = ell.data.astype(dtype), ell.indices
    plan = build_ell_plan(*data.shape)
    return (
        lambda block: ell_sweep_matmat(data, indices, block, plan=plan),
        lambda x: ell_sweep_matvec(data, indices, x, plan=plan),
    )


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def operand(rng, shape, dtype):
    values = rng.standard_normal(shape).astype(dtype)
    values.flat[::5] = -0.0  # products of -0.0 exercise zero absorption
    return values


class TestCompiledSweep:
    """Compiled operands are bit-identical to the per-call gather path."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ragged_csr_matvec_and_matmat(self, dtype, seed):
        csr = ragged_csr(seed)
        assert 0 in csr.row_nnz() and csr.max_row_nnz >= 30
        data, indices = csr.data.astype(dtype), csr.indices
        plan = csr.sweep_plan
        rng = np.random.default_rng(seed + 10)
        x = operand(rng, 40, dtype)
        block = operand(rng, (40, 5), dtype)
        gather = data.view(_Uncompiled), indices.view(_Uncompiled)
        for _ in range(2):  # compile on the first call, reuse on the second
            assert_bits_equal(
                csr_sweep_matvec(data, indices, plan, x),
                csr_sweep_matvec(*gather, plan, x),
            )
            assert_bits_equal(
                csr_sweep_matmat(data, indices, plan, block),
                csr_sweep_matmat(*gather, plan, block),
            )
        assert plan.compiled(data, indices) is plan.compiled(data, indices)
        assert plan.compiled(*gather) is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_padded_ell_matches_gather_and_csr(self, dtype):
        csr = ragged_csr(3)
        ell = csr.to_ell()
        assert ell.padding_fraction > 0.5
        data = ell.data.astype(dtype)
        plan = build_ell_plan(*data.shape)
        rng = np.random.default_rng(4)
        x = operand(rng, 40, dtype)
        block = operand(rng, (40, 3), dtype)
        compiled = ell_sweep_matvec(data, ell.indices, x, plan=plan)
        assert_bits_equal(compiled, ell_sweep_matvec(data, ell.indices, x))
        csr_data = csr.data.astype(dtype)
        assert_bits_equal(
            compiled, csr_sweep_matvec(csr_data, csr.indices, csr.sweep_plan, x)
        )
        assert_bits_equal(
            ell_sweep_matmat(data, ell.indices, block, plan=plan),
            ell_sweep_matmat(data, ell.indices, block),
        )
        if dtype is np.float64:
            assert_bits_equal(ell.matvec(x), csr.matvec(x))
            assert_bits_equal(ell.matmat(block), csr.matmat(block))

    @pytest.mark.parametrize(
        "data_dtype, block_dtype",
        [
            (np.float64, np.float64),
            (np.float32, np.float32),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
    )
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_block_columns_match_matvec(self, data_dtype, block_dtype, width):
        # In-place full-row slots and scattered partial-row slots alike:
        # column j of the block sweep is the matvec of column j.
        csr = ragged_csr(6)
        data, plan = csr.data.astype(data_dtype), csr.sweep_plan
        block = operand(np.random.default_rng(width), (40, width), block_dtype)
        ell = csr.to_ell()
        ell_data = ell.data.astype(data_dtype)
        ell_plan = build_ell_plan(*ell.data.shape)
        csr_block = csr_sweep_matmat(data, csr.indices, plan, block)
        ell_block = ell_sweep_matmat(ell_data, ell.indices, block, plan=ell_plan)
        for j in range(width):
            column = csr_sweep_matvec(data, csr.indices, plan, block[:, j].copy())
            assert_bits_equal(csr_block[:, j], column)
            assert_bits_equal(ell_block[:, j], column)

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize(
        "data_dtype, block_dtype",
        [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)],
    )
    def test_widened_sweep_across_width_changes(self, fmt, data_dtype, block_dtype):
        # One plan sweeps blocks of changing width; every column stays the
        # matvec of that column, whether its values are widened or not.
        matmat, matvec = compiled_sweeps(full_row_csr(11), fmt, data_dtype)
        rng = np.random.default_rng(12)
        for width in (32, 5, 32, 1):
            block = operand(rng, (40, width), block_dtype)
            result = matmat(block)
            for j in range(width):
                assert_bits_equal(result[:, j], matvec(block[:, j].copy()))

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_widened_sweep_of_negative_zero_products(self, fmt):
        # -0.0 operands against negative and positive values: every
        # product is a signed zero, and the sums absorb them exactly.
        matmat, matvec = compiled_sweeps(full_row_csr(13), fmt, np.float64)
        block = np.full((40, 4), -0.0)
        block[::3, 1] = 0.0
        block[:, 2] = np.where(np.arange(40) % 2, -0.0, 1.0)
        result = matmat(block)
        for j in range(4):
            assert_bits_equal(result[:, j], matvec(block[:, j].copy()))

    def test_widened_values_held_for_one_width(self):
        # The compiled operands keep one widened set: the last block
        # width swept, in the values' own dtype, one per full-row slot.
        csr = full_row_csr(14)
        data, indices, plan = csr.data.astype(np.float32), csr.indices, csr.sweep_plan
        rng = np.random.default_rng(15)
        csr_sweep_matmat(data, indices, plan, operand(rng, (40, 5), np.float64))
        compiled = plan.compiled(data, indices)
        narrow = compiled.widened(5)
        full_rows = [rows is None for rows, _, _ in compiled.slots]
        assert full_rows[:2] == [True, True] and not all(full_rows)
        assert [w is not None for w in narrow] == full_rows
        dropped = [weakref.ref(w) for w in narrow if w is not None]
        del narrow
        csr_sweep_matmat(data, indices, plan, operand(rng, (40, 32), np.float64))
        assert all(ref() is None for ref in dropped)
        wide = compiled.widened(32)
        for w, (rows, vals, _) in zip(wide, compiled.slots):
            if rows is not None:
                continue
            assert w.shape == (40, 32) and w.dtype == np.float32
            np.testing.assert_array_equal(w, np.repeat(vals[:, None], 32, axis=1))
        csr_sweep_matmat(data, indices, plan, operand(rng, (40, 1), np.float64))
        assert compiled.widened(32) is wide  # one-column blocks do not widen

    def test_blocks_beyond_a_lane_are_not_widened(self):
        # A host block wider than a device lane keeps the broadcast
        # multiply: it builds no widened set and leaves a held one as is.
        assert kernels.LANE_ELEMENTS <= _WIDEN_ELEMENTS
        n = 600
        csr = full_row_csr(16, n=n)
        data, indices, plan = csr.data, csr.indices, csr.sweep_plan
        rng = np.random.default_rng(17)
        block = operand(rng, (n, 64), np.float64)
        assert block.size > _WIDEN_ELEMENTS
        result = csr_sweep_matmat(data, indices, plan, block)
        for j in range(64):
            column = csr_sweep_matvec(data, indices, plan, block[:, j].copy())
            assert_bits_equal(result[:, j], column)
        compiled = plan.compiled(data, indices)
        assert compiled._wide is None
        csr_sweep_matmat(data, indices, plan, block[:, :32])  # fits a lane
        lane = compiled._wide
        assert lane is not None and compiled._wide_k == 32
        csr_sweep_matmat(data, indices, plan, block)
        assert compiled._wide is lane

    def test_device_matmat_under_sanitizer_reads_all_storage(self):
        csr = ragged_csr(7)
        device = Device(tiny_test_device())
        buffers = {}
        for name, host in (
            ("H.data", csr.data),
            ("H.indices", csr.indices),
            ("H.indptr", csr.indptr),
        ):
            buffers[name] = device.alloc(host.shape, dtype=host.dtype, name=name)
            device.memcpy_htod(buffers[name], host)
        matrix = DeviceMatrix(
            csr_data=buffers["H.data"],
            csr_indices=buffers["H.indices"],
            csr_indptr=buffers["H.indptr"],
            shape=csr.shape,
            host_indptr=csr.indptr,
        )
        block = operand(np.random.default_rng(8), (40, 4), np.float64)
        reads = {}

        class ReadLog(DeviceSanitizer):
            def on_read(self, shadow, idx):
                reads.setdefault(shadow.name, []).append(np.array(idx))
                super().on_read(shadow, idx)

        with ReadLog().activate():
            sanitized = matrix.matmat(block)
        for name in ("H.data", "H.indices"):
            # The block sweep reads every stored slot once, like a matvec.
            np.testing.assert_array_equal(
                np.sort(np.concatenate(reads[name])), np.arange(csr.nnz_stored)
            )
        assert_bits_equal(sanitized, csr.matmat(block))
        assert_bits_equal(matrix.matmat(block), sanitized)

    def test_ell_plan_must_match_storage(self):
        ell = ragged_csr().to_ell()
        with pytest.raises(ShapeError, match="plan"):
            ell_sweep_matvec(
                ell.data, ell.indices, np.ones(40), plan=build_ell_plan(40, 2)
            )

    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    def test_device_matvec_under_sanitizer_reads_all_storage(self, fmt):
        csr = ragged_csr(5)
        device = Device(tiny_test_device())
        if fmt == "csr":
            arrays = {"H.data": csr.data, "H.indices": csr.indices}
        else:
            ell = csr.to_ell()
            arrays = {"H.ell_data": ell.data, "H.ell_indices": ell.indices}
        buffers = {}
        for name, host in arrays.items():
            buffers[name] = device.alloc(host.shape, dtype=host.dtype, name=name)
            device.memcpy_htod(buffers[name], host)
        if fmt == "csr":
            d_indptr = device.alloc(41, dtype=np.int64, name="H.indptr")
            device.memcpy_htod(d_indptr, csr.indptr)
            matrix = DeviceMatrix(
                csr_data=buffers["H.data"],
                csr_indices=buffers["H.indices"],
                csr_indptr=d_indptr,
                shape=csr.shape,
                host_indptr=csr.indptr,
            )
        else:
            matrix = DeviceMatrix(
                ell_data=buffers["H.ell_data"],
                ell_indices=buffers["H.ell_indices"],
                shape=csr.shape,
            )
        x = operand(np.random.default_rng(6), 40, np.float64)

        class ReadLog(DeviceSanitizer):
            def __init__(self):
                super().__init__()
                self.reads = {}

            def on_read(self, shadow, idx):
                self.reads.setdefault(shadow.name, []).append(np.array(idx))
                super().on_read(shadow, idx)

        def sanitized_matvec():
            sanitizer = ReadLog()
            with sanitizer.activate():
                y = matrix.matvec(x)
            return y, {
                name: np.sort(np.concatenate(parts))
                for name, parts in sanitizer.reads.items()
            }

        before, reads_before = sanitized_matvec()
        compiled = matrix.matvec(x)  # un-instrumented: compiles the plan
        after, reads_after = sanitized_matvec()
        assert set(reads_before) == set(arrays)
        for name, host in arrays.items():
            # Every stored slot of the matrix is read exactly once, both
            # before and after the un-instrumented matvec compiled the plan.
            np.testing.assert_array_equal(reads_before[name], np.arange(host.size))
            np.testing.assert_array_equal(reads_after[name], reads_before[name])
        assert_bits_equal(compiled, before)
        assert_bits_equal(after, before)
        assert_bits_equal(compiled, csr.matvec(x))


class TestSweepShapeErrors:
    """The raw sweep helpers reject mis-shaped operands with ShapeError."""

    def test_csr_matmat_rejects_a_vector(self):
        csr = ragged_csr()
        with pytest.raises(ShapeError, match="2-D"):
            csr_sweep_matmat(csr.data, csr.indices, csr.sweep_plan, np.ones(40))

    def test_ell_matmat_rejects_a_vector(self):
        ell = ragged_csr().to_ell()
        with pytest.raises(ShapeError, match="2-D"):
            ell_sweep_matmat(ell.data, ell.indices, np.ones(40), plan=ell.sweep_plan)
        with pytest.raises(ShapeError, match="2-D"):
            ell_sweep_matmat(ell.data, ell.indices, np.ones(40))

    def test_csr_matvec_rejects_a_short_operand(self):
        csr = ragged_csr()
        data, indices = csr.data, csr.indices
        with pytest.raises(ShapeError, match="rows"):
            csr_sweep_matvec(data, indices, csr.sweep_plan, np.ones(20))
        gather = data.view(_Uncompiled), indices.view(_Uncompiled)
        with pytest.raises(ShapeError, match="too short"):
            csr_sweep_matvec(*gather, csr.sweep_plan, np.ones(20))

    def test_block_sweeps_reject_a_short_operand(self):
        csr = ragged_csr()
        ell = csr.to_ell()
        short = np.ones((20, 3))
        with pytest.raises(ShapeError, match="rows"):
            csr_sweep_matmat(csr.data, csr.indices, csr.sweep_plan, short)
        with pytest.raises(ShapeError, match="rows"):
            ell_sweep_matmat(ell.data, ell.indices, short, plan=ell.sweep_plan)
        with pytest.raises(ShapeError, match="too short"):
            ell_sweep_matmat(ell.data, ell.indices, short)

    def test_dense_sweeps_reject_a_short_operand(self):
        array = sample_dense()
        with pytest.raises(ShapeError, match="columns"):
            dense_sweep_matvec(array, np.ones(3))
        with pytest.raises(ShapeError, match="columns"):
            dense_sweep_matmat(array, np.ones((3, 2)))
        with pytest.raises(ShapeError, match="2-D"):
            dense_sweep_matmat(array, np.ones(4))


class TestTransformations:
    def test_transpose_involution(self):
        dense = np.triu(sample_dense())
        ell = ELLMatrix.from_dense(dense)
        np.testing.assert_array_equal(ell.transpose().to_dense(), dense.T)
        np.testing.assert_array_equal(
            ell.transpose().transpose().to_dense(), dense
        )

    def test_scale_shift_matches_dense(self):
        dense = sample_dense()
        out = ELLMatrix.from_dense(dense).scale_shift(0.5, -1.0)
        assert isinstance(out, ELLMatrix)
        np.testing.assert_allclose(
            out.to_dense(), 0.5 * dense - 1.0 * np.eye(4)
        )

    def test_diagonal_and_symmetry(self):
        ell = ELLMatrix.from_dense(sample_dense())
        np.testing.assert_array_equal(ell.diagonal(), np.full(4, 2.0))
        assert ell.is_symmetric()
        assert not ELLMatrix.from_dense(np.triu(sample_dense())).is_symmetric()

    def test_offdiag_abs_row_sums(self):
        ell = ELLMatrix.from_dense(sample_dense())
        np.testing.assert_array_equal(
            ell.offdiag_abs_row_sums(), np.array([1.0, 2.0, 2.0, 1.0])
        )
