"""Host memos of repro.serve: paid once per content, bounded, never shared.

The service validates, rescales, prices and reconstructs once per
distinct content instead of once per request.  These tests pin that the
saving is real (one symmetry check per fingerprint), that it is safe
(edited operators are checked again, failures are not remembered, every
answer matches the engine that produced it) and that it is bounded.
"""

import numpy as np
import pytest

from repro.errors import DeviceLostError, ValidationError
from repro.gpukpm import GpuKPM
from repro.kpm import (
    KPMConfig,
    compute_dos,
    greens_function,
    local_dos,
    rescale_operator,
)
from repro.lattice import chain, cubic, tight_binding_hamiltonian
from repro.obs.workloads import GATEWAY_WORKLOAD
from repro.serve import (
    DoSRequest,
    Gateway,
    GreenRequest,
    LDoSRequest,
    SpectralService,
    TenantPolicy,
    timed_trace,
)
from repro.serve.service import MEMO_BOUND
from repro.sparse import CSRMatrix, DenseOperator, ELLMatrix, as_operator

CONFIG = KPMConfig(num_moments=16, num_random_vectors=2, seed=3)
ENERGIES = (-1.0, 0.25)
MEMOS = ("_symmetric", "_rescaled", "_tuned", "_estimates", "_reconstructed")


def bench_pr8_trace(seed=GATEWAY_WORKLOAD["seed"]):
    """The overloaded multi-tenant trace of the BENCH_PR8 gateway gate."""
    w = GATEWAY_WORKLOAD
    return timed_trace(
        w["requests"],
        seed=seed,
        tenants=w["tenants"],
        duration=w["duration"],
        deadline_slack=w["deadline_slack"],
        flash_crowds=w["flash_crowds"],
        flash_multiplier=w["flash_multiplier"],
        repeat_bias=w["repeat_bias"],
    )


def bench_pr8_gateway():
    w = GATEWAY_WORKLOAD
    return Gateway(
        template=("gpu-sim", "cpu-model"),
        max_active=w["max_active"],
        default_policy=TenantPolicy(rate=w["tenant_rate"], burst=w["tenant_burst"]),
    )


class TestValidationPerContent:
    def test_symmetry_checked_once_per_fingerprint(self, monkeypatch):
        checked = []
        for cls in (CSRMatrix, ELLMatrix, DenseOperator):

            def counted(self, *args, _original=cls.is_symmetric, **kwargs):
                checked.append(self.fingerprint())
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "is_symmetric", counted)
        arrivals = bench_pr8_trace()
        gateway = bench_pr8_gateway()
        gateway.run_trace(arrivals, flush_interval=GATEWAY_WORKLOAD["flush_interval"])
        offered = {
            as_operator(arrival.request.hamiltonian).fingerprint()
            for arrival in arrivals
        }
        assert len(arrivals) > len(offered)
        assert sorted(checked) == sorted(offered)

        # Edit one offered operator in place so that it turns asymmetric:
        # its next offer must fail exactly like a fresh asymmetric one.
        edited = arrivals[0].request.hamiltonian
        assert isinstance(edited, CSRMatrix)
        offdiag = int(np.flatnonzero(edited.indices[: edited.indptr[1]] != 0)[0])
        fresh = CSRMatrix(
            edited.indptr.copy(), edited.indices.copy(), edited.data.copy(),
            edited.shape,
        )
        fresh.data[offdiag] += 0.5
        with pytest.raises(ValidationError) as fresh_error:
            bench_pr8_gateway().offer(DoSRequest(fresh, CONFIG))
        edited.data[offdiag] += 0.5
        for _ in range(2):  # a failed operator is never remembered
            with pytest.raises(ValidationError) as edited_error:
                gateway.offer(DoSRequest(edited, CONFIG))
            assert str(edited_error.value) == str(fresh_error.value)


class FailingGpu(GpuKPM):
    """The gpu-sim engine, failing with a device fault while ``fail`` is set."""

    fail = False

    def compute_moments(self, scaled_operator, config):
        if self.fail:
            raise DeviceLostError("injected fault")
        return super().compute_moments(scaled_operator, config)

    def compute_moments_resumable(self, scaled_operator, config):
        if self.fail:
            raise DeviceLostError("injected fault")
        return super().compute_moments_resumable(scaled_operator, config)


def direct_values(request, engine):
    """What a direct library call on ``engine`` answers for ``request``."""
    if isinstance(request, LDoSRequest):
        return local_dos(request.hamiltonian, request.site, request.config)[1]
    result = compute_dos(request.hamiltonian, request.config, backend=engine)
    if isinstance(request, GreenRequest):
        return greens_function(
            result.moments, result.rescaling, np.asarray(request.energies),
            kernel=request.kernel,
        )
    return result.density


class TestReconstructionMemo:
    def test_responses_own_their_buffers(self):
        h = tight_binding_hamiltonian(chain(32))
        requests = [
            DoSRequest(h, CONFIG),
            DoSRequest(h, CONFIG),
            GreenRequest(h, energies=ENERGIES, config=CONFIG),
            LDoSRequest(h, site=3, config=CONFIG),
        ]
        service = SpectralService(("numpy",))
        first = service.serve(requests)
        expected = [(r.energies.copy(), r.values.copy()) for r in first]
        first[0].values[:] = np.nan
        first[0].energies[:] = np.nan
        first[2].values[:] = np.nan
        first[2].energies[:] = np.nan
        first[3].values[:] = np.nan
        assert np.array_equal(first[1].values, expected[1][1])
        later = service.serve(requests)
        assert [r.source for r in later] == ["cache"] * 4
        for response, (energies, values) in zip(later, expected):
            assert np.array_equal(response.energies, energies)
            assert np.array_equal(response.values, values)

    def test_recompute_on_other_engine_is_keyed_by_content(self):
        h = tight_binding_hamiltonian(cubic(4))
        other = tight_binding_hamiltonian(chain(16))
        config = KPMConfig(num_moments=32, num_random_vectors=4, seed=3)
        requests = [
            DoSRequest(h, config),
            GreenRequest(h, energies=ENERGIES, config=config),
        ]
        gpu = FailingGpu()
        service = SpectralService((gpu, "cpu-model"), cache_capacity=1)
        first = service.serve(requests)
        service.serve([DoSRequest(other, config)])  # evicts h's entry
        gpu.fail = True
        second = service.serve(requests)
        assert {r.engine for r in first} == {"gpu-sim"}
        assert {r.engine for r in second} == {"cpu-model"}
        for request, a, b in zip(requests, first, second):
            on_gpu = direct_values(request, "gpu-sim")
            on_cpu = direct_values(request, "cpu-model")
            # The engines disagree in the last bits, so a memo keyed on
            # (key, N) would hand back the gpu-sim answer here.
            assert not np.array_equal(on_gpu, on_cpu)
            assert np.array_equal(a.values, on_gpu)
            assert np.array_equal(b.values, on_cpu)

    def test_memos_stay_bounded(self):
        base = tight_binding_hamiltonian(chain(8))
        operators = [
            base.scale_shift(1.0 + k / 256.0, 0.0) for k in range(MEMO_BOUND + 3)
        ]
        service = SpectralService(("gpu-sim",))
        requests = []
        for op in operators:
            requests.append(DoSRequest(op, CONFIG))
            requests.append(LDoSRequest(op, site=1, config=CONFIG))
            requests.append(GreenRequest(op, energies=ENERGIES, config=CONFIG))
        for request in requests:
            [response] = service.serve([request])
            engine = response.engine
            assert np.array_equal(response.values, direct_values(request, engine))
            assert all(len(getattr(service, memo)) <= MEMO_BOUND for memo in MEMOS)
        assert len(service._symmetric) == MEMO_BOUND
        assert len(service._estimates) == MEMO_BOUND
        # Revisiting the evicted first operator still answers the same.
        [again] = service.serve([requests[0]])
        assert np.array_equal(again.values, direct_values(requests[0], "gpu-sim"))


def direct_estimate(engine, operator, config):
    """An unmemoized analytic price of ``config`` on ``engine``."""
    scaled, _ = rescale_operator(
        operator, method=config.bounds_method, epsilon=config.epsilon
    )
    return engine.estimate_modeled_seconds(scaled, config)


class TestPricingMemo:
    # Seed 179 also prices LDoS requests at one site under two vector
    # setups, which share a moment key but not a price.
    @pytest.mark.parametrize("seed", [GATEWAY_WORKLOAD["seed"], 179])
    def test_every_estimate_equals_an_unmemoized_one(self, monkeypatch, seed):
        checked = []
        memo = SpectralService._estimate

        def compared(self, slot, key, operator, config):
            cost = memo(self, slot, key, operator, config)
            if cost is not None:
                assert cost == direct_estimate(slot.engine, operator, config)
                checked.append(cost)
            return cost

        monkeypatch.setattr(SpectralService, "_estimate", compared)
        gateway = bench_pr8_gateway()
        gateway.run_trace(
            bench_pr8_trace(seed), flush_interval=GATEWAY_WORKLOAD["flush_interval"]
        )
        assert len(checked) > len(gateway._estimates)

    def test_ldos_price_reads_the_vector_setup(self):
        # An LDoS key omits the vector count and seed, which the device
        # estimate reads: each setup must be priced on its own.
        h = tight_binding_hamiltonian(chain(32))
        wide = CONFIG.with_updates(num_random_vectors=8, seed=11)
        gateway = Gateway(template=("gpu-sim",))
        for tenant, config in (("a", CONFIG), ("b", wide)):
            gateway.offer(LDoSRequest(h, site=1, config=config, tenant=tenant))
        consumed = {
            tenant: counters["consumed_seconds"]
            for tenant, counters in gateway.gateway_metrics().per_tenant.items()
        }
        engine = gateway.pool.slots[0].engine
        assert consumed == {
            "a": direct_estimate(engine, h, CONFIG),
            "b": direct_estimate(engine, h, wide),
        }
        assert consumed["a"] != consumed["b"]

    def test_naive_cost_on_an_ejected_producer_is_its_invested_cost(self):
        h = tight_binding_hamiltonian(cubic(4))
        config = KPMConfig(num_moments=32, num_random_vectors=4, seed=3)
        service = SpectralService(("gpu-sim", "cpu-model"))
        [first] = service.serve([DoSRequest(h, config)])
        assert first.engine == "gpu-sim"
        estimate = direct_estimate(service.pool.slots[0].engine, h, config)
        assert service.metrics().modeled_naive_seconds == estimate
        # Eject the producer: a prefix hit on its entry is then charged
        # the entry's invested cost, not an estimate at the lower order.
        service.pool.report_failure(service.pool.slots[0])
        low = config.with_updates(num_moments=16)
        [second] = service.serve([DoSRequest(h, low)])
        assert second.source == "cache" and second.engine == "gpu-sim"
        assert service.metrics().modeled_naive_seconds == (
            estimate + first.modeled_seconds
        )
