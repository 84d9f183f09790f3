"""Unit tests for repro.kpm.estimator and repro.kpm.engines."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kpm import (
    KPMConfig,
    available_backends,
    exact_moments,
    get_engine,
    jackson_resolution,
    moment_convergence_study,
    register_engine,
    required_moments_for_resolution,
    rescale_operator,
)
from repro.kpm.engines import NumpyEngine
from repro.lattice import chain, tight_binding_hamiltonian


class TestResolutionHelpers:
    def test_jackson_resolution_value(self):
        assert jackson_resolution(100, 2.0) == pytest.approx(np.pi * 2.0 / 100)

    def test_required_moments_inverts(self):
        n = required_moments_for_resolution(0.05, scale=2.0)
        assert jackson_resolution(n, 2.0) <= 0.05
        assert jackson_resolution(n - 1, 2.0) > 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            jackson_resolution(0)
        with pytest.raises(ValidationError):
            required_moments_for_resolution(-1.0)


class TestConvergenceStudy:
    @pytest.fixture
    def scaled(self):
        h = tight_binding_hamiltonian(chain(64), format="csr")
        scaled, _ = rescale_operator(h)
        return scaled

    def test_error_decreases_with_r(self, scaled):
        points = moment_convergence_study(
            scaled, [1, 16, 256], num_moments=16, seed=0
        )
        errors = [p.moment_rms_error for p in points]
        assert errors[2] < errors[0]

    def test_rows_in_input_order(self, scaled):
        points = moment_convergence_study(scaled, [8, 2], num_moments=8)
        assert [p.num_random_vectors for p in points] == [8, 2]

    def test_explicit_reference(self, scaled):
        reference = exact_moments(scaled, 8)
        points = moment_convergence_study(
            scaled, [4], num_moments=8, reference_moments=reference
        )
        assert points[0].moment_rms_error >= 0

    def test_reference_length_mismatch(self, scaled):
        with pytest.raises(ValidationError):
            moment_convergence_study(
                scaled, [4], num_moments=8, reference_moments=np.ones(5)
            )

    def test_empty_r_values(self, scaled):
        with pytest.raises(ValidationError):
            moment_convergence_study(scaled, [], num_moments=8)


class TestEngineRegistry:
    def test_builtins_registered(self):
        assert {"numpy", "cpu-model", "gpu-sim"} <= set(available_backends())

    def test_get_numpy_engine(self):
        engine = get_engine("numpy")
        assert engine.name == "numpy"

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            get_engine("quantum")

    def test_register_custom_engine(self):
        class Custom:
            name = "custom-test"

            def compute_moments(self, operator, config):
                return NumpyEngine().compute_moments(operator, config)

        register_engine("custom-test", Custom)
        try:
            assert get_engine("custom-test").name == "custom-test"
        finally:
            from repro.kpm.engines import _FACTORIES

            _FACTORIES.pop("custom-test")

    def test_register_rejects_bad_name(self):
        with pytest.raises(ValidationError):
            register_engine("", NumpyEngine)

    def test_register_rejects_non_callable(self):
        with pytest.raises(ValidationError):
            register_engine("x", 42)

    def test_factory_must_return_engine(self):
        register_engine("broken-test", lambda: object())
        try:
            with pytest.raises(ValidationError, match="compute_moments"):
                get_engine("broken-test")
        finally:
            from repro.kpm.engines import _FACTORIES

            _FACTORIES.pop("broken-test")

    def test_numpy_engine_timing_report(self, chain_csr, small_config):
        scaled, _ = rescale_operator(chain_csr)
        data, report = NumpyEngine().compute_moments(scaled, small_config)
        assert report.modeled_seconds is None
        assert report.wall_seconds > 0
        assert data.num_moments == small_config.num_moments


class TestEngineUnification:
    """GpuKPM/MultiGpuKPM as first-class MomentEngine backends."""

    def test_cluster_backend_registered(self):
        assert "cluster" in available_backends()
        engine = get_engine("cluster")
        assert engine.name == "cluster"

    def test_gpu_sim_is_gpukpm(self):
        from repro.gpukpm import GpuKPM

        assert isinstance(get_engine("gpu-sim"), GpuKPM)

    def test_engine_instance_passthrough(self):
        engine = NumpyEngine()
        assert get_engine(engine) is engine

    def test_compute_dos_accepts_instance(self, chain_csr, small_config):
        from repro.kpm import compute_dos

        by_name = compute_dos(chain_csr, small_config, backend="numpy")
        by_instance = compute_dos(chain_csr, small_config, backend=NumpyEngine())
        assert np.array_equal(by_name.density, by_instance.density)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValidationError, match="available names"):
            get_engine("warp-drive")

    def test_non_engine_object_rejected(self):
        with pytest.raises(ValidationError, match="MomentEngine instance"):
            get_engine(42)

    def test_protocol_satisfied(self):
        from repro.cluster import MultiGpuKPM
        from repro.gpukpm import GpuKPM
        from repro.kpm.engines import MomentEngine

        assert isinstance(GpuKPM(), MomentEngine)
        assert isinstance(MultiGpuKPM(2), MomentEngine)

    def test_gpukpm_run_shim_removed(self):
        # The GpuKPM.run and MultiGpuKPM.run shims completed their
        # deprecation cycles; the only entry point is the MomentEngine
        # protocol method.
        from repro.cluster import MultiGpuKPM
        from repro.gpukpm import GpuKPM

        for engine in (GpuKPM, MultiGpuKPM):
            assert not hasattr(engine, "run")

    def test_cluster_backend_computes(self, chain_csr, small_config):
        from repro.kpm import compute_dos

        result = compute_dos(chain_csr, small_config, backend="cluster")
        # The engine registers as "cluster"; its timing report keeps the
        # more informative per-run label.
        assert result.timing.backend.startswith("multi-gpu-sim")
        assert result.integrate() == pytest.approx(1.0, abs=0.05)
