"""Microbenchmark: one gateway replay of a BENCH_PR8-shape trace.

Times ``Gateway.run_trace`` on the ``gateway-overload`` traffic shape
(seed 128, the first trace of a seed-1 benchmark run) and checks the two
properties the host memos must keep: every answer is bit-identical to a
direct library call on the engine that served it, and the analytic
price is computed at most once per distinct ``(key, N, slot)`` — with
the vector setup added for LDoS keys, which omit it although the price
reads it.
"""

import numpy as np

from repro.gpukpm import GpuKPM
from repro.kpm import compute_dos, greens_function, local_dos
from repro.obs.workloads import GATEWAY_WORKLOAD
from repro.serve import Gateway, GreenRequest, LDoSRequest, TenantPolicy, timed_trace
from repro.serve.requests import moment_config_key
from repro.serve.service import SpectralService

SEED = 128


def _trace():
    w = GATEWAY_WORKLOAD
    return timed_trace(
        w["requests"],
        seed=SEED,
        tenants=w["tenants"],
        duration=w["duration"],
        deadline_slack=w["deadline_slack"],
        flash_crowds=w["flash_crowds"],
        flash_multiplier=w["flash_multiplier"],
        repeat_bias=w["repeat_bias"],
    )


def _replay(arrivals):
    w = GATEWAY_WORKLOAD
    gateway = Gateway(
        template=("gpu-sim", "cpu-model"),
        max_active=w["max_active"],
        default_policy=TenantPolicy(rate=w["tenant_rate"], burst=w["tenant_burst"]),
    )
    return gateway, gateway.run_trace(arrivals, flush_interval=w["flush_interval"])


def _direct(request, engine, num_moments):
    """The direct call a served answer must equal, bit for bit."""
    config = request.config.with_updates(num_moments=num_moments)
    if isinstance(request, LDoSRequest):
        return local_dos(request.hamiltonian, request.site, config)[1]
    result = compute_dos(request.hamiltonian, config, backend=engine)
    if isinstance(request, GreenRequest):
        return greens_function(
            result.moments, result.rescaling, np.asarray(request.energies),
            kernel=request.kernel,
        )
    return result.density


class TestGatewayReplay:
    def test_replay_bit_identical_and_priced_once(self, run_once, benchmark, monkeypatch):
        # Each estimate is filed under the (key, config with N, slot)
        # being priced.
        estimates = []
        pricing = [None]
        estimate = GpuKPM.estimate_modeled_seconds
        memo = SpectralService._estimate

        def counted_estimate(self, scaled_operator, config):
            estimates.append(pricing[0])
            return estimate(self, scaled_operator, config)

        def recorded_memo(self, slot, key, operator, config):
            pricing[0] = (key, moment_config_key(config), slot.name)
            return memo(self, slot, key, operator, config)

        monkeypatch.setattr(GpuKPM, "estimate_modeled_seconds", counted_estimate)
        monkeypatch.setattr(SpectralService, "_estimate", recorded_memo)
        arrivals = _trace()
        gateway, responses = run_once(benchmark, _replay, arrivals)
        print()
        print(gateway.gateway_metrics().summary())

        assert estimates and len(estimates) == len(set(estimates))
        served = 0
        for arrival, response in zip(arrivals, responses):
            if response.outcome != "served":
                continue
            served += 1
            engine = response.engine.split("#")[0]
            direct = _direct(arrival.request, engine, response.num_moments_served)
            assert np.array_equal(response.values, direct), response.tag
        assert served > 100
