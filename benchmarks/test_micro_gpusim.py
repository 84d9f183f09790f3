"""Microbenchmarks: simulator overhead and the GPU pipeline at test scale.

These time the *simulation machinery itself* (host wall-clock), which
bounds how large a functional GPU run the harness can afford.
"""

import numpy as np
import pytest

from repro.gpu import Device, TESLA_C2050
from repro.gpukpm import GpuKPM, estimate_gpu_kpm_seconds, kernels
from repro.kpm import KPMConfig, random_vector, rescale_operator
from repro.lattice import cubic, tight_binding_hamiltonian


@pytest.fixture(scope="module")
def scaled_cube():
    h = tight_binding_hamiltonian(cubic(5), format="csr")
    scaled, _ = rescale_operator(h)
    return scaled


class TestSimulatorOverhead:
    def test_pipeline_functional_d125(self, run_once, benchmark, scaled_cube):
        config = KPMConfig(
            num_moments=64, num_random_vectors=16, num_realizations=1, block_size=32
        )
        data, report = run_once(benchmark, GpuKPM().compute_moments, scaled_cube, config)
        assert report.modeled_seconds > 0

    def test_analytic_estimator_speed(self, benchmark):
        # The estimator must be cheap enough to sweep thousands of
        # configurations (block-size tuning, multi-GPU scaling curves).
        config = KPMConfig(
            num_moments=1024, num_random_vectors=128, num_realizations=14
        )
        seconds = benchmark(estimate_gpu_kpm_seconds, TESLA_C2050, 4096, config)
        assert seconds > 0

    def test_device_alloc_free_cycle(self, benchmark):
        def cycle():
            device = Device(TESLA_C2050)
            arr = device.alloc((256, 256))
            arr.free()
            return device

        benchmark(cycle)


class TestRaggedLane:
    def test_mu_tilde_matches_per_vector_recursion(self):
        # D=1000 gives lanes of 32; one block of 40 vectors ends in a
        # ragged lane of 8.  Each row of mu~ must be the one-vector
        # program's moments: canonical matvecs and 1-D dots.
        h = tight_binding_hamiltonian(cubic(10), format="csr")
        scaled, _ = rescale_operator(h)
        config = KPMConfig(
            num_moments=16, num_random_vectors=40, block_size=64, seed=9
        )
        assert 40 % (kernels.LANE_ELEMENTS // 1000) == 8
        mu_tilde, _, _ = GpuKPM().run_partition(
            scaled, config, first_vector=0, num_vectors=40
        )
        for v in range(40):
            r0 = random_vector(1000, config.vector_kind, seed=9, vector_index=v)
            prev, cur = r0, scaled.matvec(r0)
            expected = [r0 @ r0, r0 @ cur]
            for _ in range(2, 16):
                prev, cur = cur, 2.0 * scaled.matvec(cur) - prev
                expected.append(r0 @ cur)
            assert np.array_equal(mu_tilde[v], expected)
