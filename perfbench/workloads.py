"""The benchmark's workloads: inputs, one operation, output checks.

Each workload builds its inputs from the seed alone, runs one
*operation* per :meth:`operate` call (one ``compute_dos`` call, or one
gateway replay of a timed trace), and checks outputs against references
computed here.  Calls into the program go through module attributes
(``kpm.compute_dos``), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from reference import (
    ANSWER_TOLERANCE,
    MOMENT_TOLERANCE,
    RESCALE_TOLERANCE,
    chebyshev_moments,
    gerschgorin_rescaling,
    to_scipy,
)


class DosWorkload:
    """Closed loop: ``compute_dos`` calls back to back from one caller."""

    def __init__(self, *, side, num_moments, num_vectors, backend):
        self.side = side
        self.num_moments = num_moments
        self.num_vectors = num_vectors
        self.backend_name = backend  # "gpu-sim", "numpy" or "gpu-sim+tuner"
        self.inputs = 1

    def setup(self, seed):
        import repro.kpm as kpm
        from repro.lattice import cubic, tight_binding_hamiltonian

        self.kpm = kpm
        self.hamiltonian = tight_binding_hamiltonian(cubic(self.side))
        self.config = kpm.KPMConfig(
            num_moments=self.num_moments,
            num_random_vectors=self.num_vectors,
            num_realizations=1,
            seed=seed,
        )
        self.tuner = None
        self.backend = self.backend_name
        if self.backend_name == "gpu-sim+tuner":
            from repro.gpukpm import GpuKPM
            from repro.tune import Autotuner

            self.tuner = Autotuner()
            self.backend = GpuKPM(tuner=self.tuner)
        self.operate(0)  # warm-up: lazy imports, sweep plans, tuner cache

    def operate(self, index):
        return self.kpm.compute_dos(self.hamiltonian, self.config, backend=self.backend)

    def modeled_seconds(self, result):
        """Modeled device seconds of one call.

        The numpy engine has no hardware model, so its figure is the
        cpu-model engine's price for the same problem (Core i7 930).
        """
        if result.timing.modeled_seconds is not None:
            return result.timing.modeled_seconds
        from repro.cpu.backend import estimate_cpu_kpm_seconds
        from repro.cpu.spec import CORE_I7_930

        return estimate_cpu_kpm_seconds(
            CORE_I7_930,
            self.hamiltonian.shape[0],
            self.config,
            nnz=self.hamiltonian.nnz_stored,
        )

    def record(self, result):
        """What the run keeps of one call (all of it: the result is small)."""
        return result

    def check(self, results, notes):
        """(calls checked, calls failed): reference mismatch or non-repeating output."""
        matrix = to_scipy(self.hamiltonian)
        scale, shift = gerschgorin_rescaling(matrix, self.config.epsilon)
        config = self.config
        block = np.hstack([
            self.kpm.random_block(
                matrix.shape[0], config.num_random_vectors, config.vector_kind,
                seed=config.seed, realization=s,
            )
            for s in range(config.num_realizations)
        ])
        reference = chebyshev_moments(matrix, scale, shift, block, config.num_moments)
        first = results[0]
        failed = 0
        for result in results:
            rescaling = result.rescaling
            error = float(np.max(np.abs(result.moments.mu - reference)))
            ok = (
                error <= MOMENT_TOLERANCE
                and abs(rescaling.scale - scale) <= RESCALE_TOLERANCE * scale
                and abs(rescaling.shift - shift) <= RESCALE_TOLERANCE * scale
                and np.array_equal(result.moments.mu, first.moments.mu)
                and np.array_equal(result.density, first.density)
                and np.all(np.isfinite(result.density))
            )
            notes["max_moment_error"] = max(notes.get("max_moment_error", 0.0), error)
            failed += not ok
        return len(results), failed

    def end_to_end(self, results, seconds):
        modeled = [self.modeled_seconds(r) for r in results]
        config = self.config
        matvecs = config.num_moments * config.num_random_vectors * config.num_realizations
        return {
            "solve_s_p50": statistics.median(seconds),
            "matvec_per_s": matvecs * len(results) / sum(seconds),
            "requests_per_s": len(results) / sum(seconds),
            "modeled_device_s": statistics.median(modeled),
            "latency_modeled_s_p50": _nearest_rank(sorted(modeled), 50.0),
            "latency_modeled_s_p99": _nearest_rank(sorted(modeled), 99.0),
        }

    def layer_counts(self, results):
        """Modeled device phases of one call (empty on the numpy engine)."""
        breakdown = results[0].timing.breakdown
        return {
            "gpu.modeled.recursion_s": breakdown.get("kpm_recursion", 0.0),
            "gpu.modeled.reduce_s": breakdown.get("reduce_moments", 0.0),
            "gpu.modeled.transfer_s": breakdown.get("transfer", 0.0),
            "gpu.modeled.setup_s": breakdown.get("setup", 0.0),
        }


#: The BENCH_PR8 overload shape: one 150-request trace over 12 modeled
#: seconds, 3 Zipf tenants, 2 flash crowds at 8x, ~0.5 s deadline slack,
#: repeat bias 0.85, token bucket 0.8/2.0, at most 3 engines.
GATEWAY_REQUESTS = 150
GATEWAY_TRACE = {
    "tenants": 3,
    "duration": 12.0,
    "deadline_slack": 0.5,
    "flash_crowds": 2,
    "flash_multiplier": 8.0,
    "repeat_bias": 0.85,
}
GATEWAY_POLICY = {"rate": 0.8, "burst": 2.0}
GATEWAY_MAX_ACTIVE = 3
GATEWAY_FLUSH_INTERVAL = 1.0

#: Traces per run.  A single trace's goodput and modeled cost depend on
#: where its flash crowds fall and which operators it first sees, so a
#: run pools this many seeded traces (over 8,000 latencies, so p99 has
#: more than 80 samples beyond it).
GATEWAY_TRACES = 128


class GatewayWorkload:
    """Open loop on the modeled clock: timed traces replayed by ``Gateway``.

    Arrivals are stamped on the modeled clock and offered when the
    gateway's clock reaches them, whatever the host time, so the
    generator is never late.  One operation replays one trace through a
    fresh gateway on the shipped ``("gpu-sim", "cpu-model")`` template.
    """

    inputs = GATEWAY_TRACES

    def setup(self, seed):
        import repro.kpm as kpm
        import repro.serve.gateway as gateway
        from repro.serve.admission import TenantPolicy
        from repro.serve.traffic import timed_trace

        self.kpm = kpm
        self.gateway = gateway
        self.policy = TenantPolicy(**GATEWAY_POLICY)
        self.traces = [
            timed_trace(GATEWAY_REQUESTS, seed=seed * GATEWAY_TRACES + k, **GATEWAY_TRACE)
            for k in range(GATEWAY_TRACES)
        ]
        self._references = {}
        self._first = {}
        self.attempted = 0
        self.failed = 0
        self.bit_mismatch = 0
        self.served_checked = 0
        self.operate(0)  # warm-up: lazy engine imports and sweep plans

    def operate(self, index):
        gateway = self.gateway.Gateway(
            template=("gpu-sim", "cpu-model"),
            max_active=GATEWAY_MAX_ACTIVE,
            default_policy=self.policy,
        )
        responses = gateway.run_trace(
            self.traces[index], flush_interval=GATEWAY_FLUSH_INTERVAL
        )
        # GatewayMetrics reports only per-trace percentiles; the run pools
        # the latency list they are computed from across traces.
        return (
            index, responses, gateway.gateway_metrics(), gateway.metrics(),
            list(gateway._latencies),
        )

    # ------------------------------------------------------------------
    # Output checks
    # ------------------------------------------------------------------
    def record(self, output):
        """Check one replay and return the compact record the run keeps.

        A trace's first replay is checked against direct calls; later
        replays of the same trace must repeat it bit for bit.
        """
        index, responses, gateway_metrics, service_metrics, latencies = output
        signature = [_signature(r) for r in responses]
        first = self._first.get(index)
        if first is None:
            self._first[index] = signature
            failed = sum(
                not self._check_response(arrival.request, response)
                for arrival, response in zip(self.traces[index], responses)
            )
            failed += abs(len(responses) - len(self.traces[index]))
        else:
            failed = sum(a != b for a, b in zip(signature, first))
            failed += abs(len(responses) - len(first))
        self.attempted += len(responses)
        self.failed += failed
        work = self._answered_work(responses)
        return index, work, len(responses), gateway_metrics, service_metrics, latencies

    def check(self, records, notes):
        notes["served_checked"] = self.served_checked
        notes["bit_mismatch"] = self.bit_mismatch
        return self.attempted, self.failed

    def _check_response(self, request, response):
        if response.outcome in ("rejected", "cancelled"):
            return (
                response.values is None
                and response.moments is None
                and response.energies is None
            )
        if response.outcome == "degraded":
            served = response.num_moments_served
            mu = _moment_array(response.moments)
            reference = self._reference_moments(request, response.engine)
            return (
                served <= request.config.num_moments
                and np.array_equal(mu, reference[:served])
            )
        if response.outcome != "served":
            return False
        direct = self._direct_values(request)
        scale = max(1.0, float(np.max(np.abs(direct))))
        error = float(np.max(np.abs(response.values - direct)))
        if response.kind != "ldos":
            self.served_checked += 1
            self.bit_mismatch += not np.array_equal(response.values, direct)
        return error <= ANSWER_TOLERANCE * scale

    def _key(self, request, engine):
        workload = request.tag.rsplit("/", 2)[0]
        return workload, request.kind, engine, getattr(request, "site", None)

    def _direct(self, request, engine):
        """The direct call a request is checked against, memoized."""
        key = self._key(request, engine)
        found = self._references.get(key)
        if found is None:
            kpm = self.kpm
            if request.kind == "ldos":
                scaled, rescaling = kpm.rescale_operator(
                    request.hamiltonian,
                    method=request.config.bounds_method,
                    epsilon=request.config.epsilon,
                )
                start = np.zeros(request.hamiltonian.shape[0])
                start[request.site] = 1.0
                moments = kpm.moments_single_vector(
                    scaled, start, request.config.num_moments
                )
                values = kpm.local_dos(request.hamiltonian, request.site, request.config)[1]
            else:
                result = kpm.compute_dos(
                    request.hamiltonian, request.config, backend=engine
                )
                moments = result.moments.mu
                if request.kind == "green":
                    values = kpm.greens_function(
                        result.moments, result.rescaling,
                        np.asarray(request.energies), kernel=request.kernel,
                    )
                else:
                    values = result.density
            found = (moments, values)
            self._references[key] = found
        return found

    def _reference_moments(self, request, engine):
        # Pool slots are named "gpu-sim#1" etc.; LDoS answers are "host".
        return self._direct(request, engine.split("#")[0])[0]

    def _direct_values(self, request):
        return self._direct(request, "host" if request.kind == "ldos" else "gpu-sim")[1]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def first_pass(self, records):
        """One record per trace (its first replay), in trace order."""
        seen = {}
        for record in records:
            seen.setdefault(record[0], record)
        return [seen[i] for i in sorted(seen)]

    def end_to_end(self, records, seconds):
        passes = self.first_pass(records)
        gateway_metrics = [record[3] for record in passes]
        offered = sum(m.offered for m in gateway_metrics)
        on_time = sum(m.served + m.degraded - m.deadline_misses for m in gateway_metrics)
        latencies = sorted(lat for record in passes for lat in record[5])
        return {
            "solve_s_p50": statistics.median(seconds),
            "matvec_per_s": sum(record[1] for record in records) / sum(seconds),
            "requests_per_s": sum(record[2] for record in records) / sum(seconds),
            "modeled_device_s": statistics.mean(
                record[4].modeled_served_seconds for record in passes
            ),
            "goodput_ratio": on_time / offered,
            "latency_modeled_s_p50": _nearest_rank(latencies, 50.0),
            "latency_modeled_s_p99": _nearest_rank(latencies, 99.0),
        }

    def layer_counts(self, records):
        """Counts that decide serving outcomes, pooled over one replay per trace."""
        passes = self.first_pass(records)
        gm = [record[3] for record in passes]
        sm = [record[4] for record in passes]
        lookups = sum(m.cache_hits + m.cache_misses for m in sm)
        return {
            "serve.cache.hit_ratio": sum(m.cache_hits for m in sm) / max(1, lookups),
            "serve.batch.coalesced_ratio": (
                sum(m.coalesced_requests for m in sm) / max(1, sum(m.admitted for m in gm))
            ),
            "serve.queue.peak_depth": max(m.queue_peak_depth for m in sm),
            "serve.outcome.served": sum(m.served for m in gm),
            "serve.outcome.degraded": sum(m.degraded for m in gm),
            "serve.outcome.rejected": sum(m.rejected for m in gm),
            "serve.outcome.deadline_misses": sum(m.deadline_misses for m in gm),
            "serve.pool.peak_active": max(m.peak_active_engines for m in gm),
            "serve.pool.scale_ups": sum(m.scale_ups for m in gm),
            "serve.engine.bit_mismatch": self.bit_mismatch,
            "serve.engine.served_checked": self.served_checked,
            "serve.engine.bit_mismatch_ratio": self.bit_mismatch / max(1, self.served_checked),
        }

    @staticmethod
    def _answered_work(responses):
        total = 0
        for r in responses:
            if r.answered:
                vectors = 1 if r.kind == "ldos" else (
                    r.config.num_random_vectors * r.config.num_realizations
                )
                total += r.num_moments_served * vectors
        return total


def _moment_array(moments):
    return moments.mu if hasattr(moments, "mu") else np.asarray(moments)


def _signature(response):
    """Everything a repeat replay must reproduce, with values as bytes."""
    values = None
    if response.values is not None:
        values = hashlib.blake2b(response.values.tobytes(), digest_size=16).digest()
    return response.outcome, response.engine, response.num_moments_served, values


def _nearest_rank(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


WORKLOADS = {
    "dos-paper": lambda: DosWorkload(
        side=10, num_moments=256, num_vectors=32, backend="gpu-sim"
    ),
    "dos-host": lambda: DosWorkload(
        side=10, num_moments=256, num_vectors=32, backend="numpy"
    ),
    "dos-large": lambda: DosWorkload(
        side=20, num_moments=128, num_vectors=16, backend="gpu-sim+tuner"
    ),
    "gateway-overload": GatewayWorkload,
}
