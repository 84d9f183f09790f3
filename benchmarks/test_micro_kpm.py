"""Microbenchmarks: measured wall-clock of the KPM numerics."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro.kpm
from repro.kpm import (
    KPMConfig,
    apply_kernel_damping,
    evaluate_series_at,
    moments_block,
    moments_single_vector,
    reconstruct_on_chebyshev_grid,
    rescale_operator,
    stochastic_moments,
)
from repro.kpm.moments import (
    extend_moments_block,
    extend_moments_single_vector,
    moments_block_resumable,
    moments_single_vector_resumable,
)
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture(scope="module")
def scaled_cube10():
    h = tight_binding_hamiltonian(cubic(10), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


class TestMomentRecursion:
    def test_single_vector_n256(self, benchmark, scaled_cube10):
        r0 = np.random.default_rng(0).standard_normal(1000)
        mu = benchmark(moments_single_vector, scaled_cube10, r0, 256)
        assert mu.shape == (256,)

    def test_single_vector_n256_doubling(self, benchmark, scaled_cube10):
        r0 = np.random.default_rng(0).standard_normal(1000)
        mu = benchmark(
            moments_single_vector, scaled_cube10, r0, 256, use_doubling=True
        )
        assert mu.shape == (256,)

    def test_block_r16_n256(self, benchmark, scaled_cube10):
        block = np.random.default_rng(0).standard_normal((1000, 16))
        mu = benchmark(moments_block, scaled_cube10, block, 256)
        assert mu.shape == (256, 16)

    def test_stochastic_r8_s1_n128(self, run_once, benchmark, scaled_cube10):
        config = KPMConfig(num_moments=128, num_random_vectors=8, num_realizations=1)
        data = run_once(benchmark, stochastic_moments, scaled_cube10, config)
        assert data.num_moments == 128

    def test_resumable_single_vector_cube4_n256(self, benchmark):
        # The gateway's LDoS shape: a basis start vector on cubic(4), D=64.
        scaled, _ = rescale_operator(tight_binding_hamiltonian(cubic(4), format="csr"))
        start = np.zeros(64)
        start[5] = 1.0
        mu, checkpoint = benchmark(moments_single_vector_resumable, scaled, start, 256)
        assert mu.shape == (256,) and checkpoint.num_moments == 256


class TestRecursionCore:
    @pytest.mark.parametrize("use_doubling", [False, True])
    @pytest.mark.parametrize("block", [False, True])
    def test_resume_then_extend_equals_cold_n256(self, scaled_cube10, block, use_doubling):
        rng = np.random.default_rng(1)
        if block:
            start = rng.standard_normal((1000, 4))
            cold, resumable, extend = (
                moments_block, moments_block_resumable, extend_moments_block
            )
        else:
            start = rng.standard_normal(1000)
            cold, resumable, extend = (
                moments_single_vector,
                moments_single_vector_resumable,
                extend_moments_single_vector,
            )
        mu, checkpoint = resumable(scaled_cube10, start, 61, use_doubling=use_doubling)
        segment, checkpoint = extend(scaled_cube10, checkpoint, 128)
        tail, _ = extend(scaled_cube10, checkpoint, 256)
        reference = cold(scaled_cube10, start, 256, use_doubling=use_doubling)
        assert np.array_equal(np.concatenate([mu, segment, tail]), reference)

    def test_chebyshev_steps_is_the_only_host_recursion(self):
        # Any `2.0 * <operator product> - prev` outside the core is a
        # second copy of the three-term loop.
        recursion = re.compile(r"2\.0 \* .*\.(?:matvec|matmat)\(")
        sites = []
        for path in sorted(Path(repro.kpm.__file__).parent.glob("*.py")):
            function = None
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.startswith("def "):
                    function = line.split("(")[0][4:]
                if recursion.search(line):
                    sites.append((path.name, function))
        assert sites == [("moments.py", "chebyshev_steps")]


class TestReconstruction:
    @pytest.fixture(scope="class")
    def damped(self):
        rng = np.random.default_rng(2)
        return apply_kernel_damping(rng.standard_normal(512) / 100, "jackson")

    def test_dct_reconstruction_k4096(self, benchmark, damped):
        x, f = benchmark(reconstruct_on_chebyshev_grid, damped, 4096)
        assert x.shape == (4096,)

    def test_direct_evaluation_m512(self, benchmark, damped):
        points = np.linspace(-0.99, 0.99, 512)
        f = benchmark(evaluate_series_at, damped, points)
        assert f.shape == (512,)

    def test_dct_beats_direct_at_scale(self, damped):
        # The DCT path must be decisively faster for a full grid.
        import time

        start = time.perf_counter()
        for _ in range(5):
            reconstruct_on_chebyshev_grid(damped, 4096)
        dct_time = time.perf_counter() - start

        x, _ = reconstruct_on_chebyshev_grid(damped, 4096)
        start = time.perf_counter()
        evaluate_series_at(damped, x)
        direct_time = time.perf_counter() - start
        assert dct_time / 5 < direct_time
