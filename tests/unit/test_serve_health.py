"""Unit tests for repro.serve.health (engine pool + fault-taxonomy health)."""

import pytest

from repro.errors import FaultError, LaunchError, ValidationError
from repro.kpm.engines import NumpyEngine
from repro.serve import ElasticEnginePool, EnginePool


class TestPoolConstruction:
    def test_names_from_registry(self):
        pool = EnginePool(("numpy", "gpu-sim"))
        assert [slot.name for slot in pool.slots] == ["numpy", "gpu-sim"]

    def test_instance_backends(self):
        pool = EnginePool((NumpyEngine(),))
        assert pool.slots[0].name == "numpy"

    def test_duplicate_names_get_suffix(self):
        pool = EnginePool(("numpy", "numpy"))
        assert [slot.name for slot in pool.slots] == ["numpy", "numpy#1"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            EnginePool(())
        with pytest.raises(ValidationError):
            EnginePool(("numpy",), eject_after=0)
        with pytest.raises(ValidationError):
            EnginePool(("no-such-backend",))


class TestSelection:
    def test_affinity_round_robin(self):
        pool = EnginePool(("numpy", "cpu-model"))
        assert pool.select(0).name == "numpy"
        assert pool.select(1).name == "cpu-model"
        assert pool.select(2).name == "numpy"

    def test_excluding(self):
        pool = EnginePool(("numpy", "cpu-model"))
        first = pool.select(0)
        assert pool.select(0, excluding=(first,)).name == "cpu-model"

    def test_empty_pool_raises_fault(self):
        pool = EnginePool(("numpy",))
        with pytest.raises(FaultError, match="no healthy engine"):
            pool.select(0, excluding=(pool.slots[0],))

    def test_doubling_skips_engines_that_cannot_run_it(self):
        pool = EnginePool(("gpu-sim", "cpu-model", "gpu-sim"))
        assert pool.runs_doubling()
        assert [pool.select(a).name for a in range(3)] == [
            "gpu-sim", "cpu-model", "gpu-sim#1",
        ]
        assert {pool.select(a, doubling=True).name for a in range(3)} == {
            "cpu-model"
        }
        only_gpu = EnginePool(("gpu-sim",))
        assert not only_gpu.runs_doubling()
        assert only_gpu.candidates(doubling=True) == []
        with pytest.raises(FaultError, match="use_doubling"):
            only_gpu.select(0, doubling=True)

    def test_doubling_takes_a_standby_slot_outside_rotation(self):
        pool = ElasticEnginePool(("gpu-sim", "cpu-model"), max_active=2)
        assert [slot.name for slot in pool.healthy_slots()] == ["gpu-sim"]
        assert [slot.name for slot in pool.candidates()] == ["gpu-sim"]
        assert pool.select(0, doubling=True).name == "cpu-model"
        assert pool.active == 1


class TestHealthTrajectory:
    def test_eject_then_readmit(self):
        pool = EnginePool(("numpy", "cpu-model"), eject_after=2, readmit_after=3)
        sick = pool.slots[0]
        pool.report_failure(sick)
        assert sick.healthy  # one strike, eject_after=2
        pool.report_failure(sick)
        assert not sick.healthy
        assert pool.stats.ejections == 1
        assert [s.name for s in pool.healthy_slots()] == ["cpu-model"]
        # Three dispatches later the slot is readmitted on probation.
        for _ in range(3):
            pool.report_success(pool.slots[1], None)
        assert [s.name for s in pool.healthy_slots()] == ["numpy", "cpu-model"]
        assert sick.strikes == 0
        assert pool.stats.readmissions == 1

    def test_success_clears_strikes(self):
        pool = EnginePool(("numpy",), eject_after=2)
        slot = pool.slots[0]
        pool.report_failure(slot)
        pool.report_success(slot, 0.5)
        pool.report_failure(slot)
        assert slot.healthy  # never reached two consecutive strikes
        assert pool.stats.modeled_seconds_by_engine == {"numpy": 0.5}

    def test_describe(self):
        pool = EnginePool(("numpy",), eject_after=1)
        assert pool.slots[0].describe() == "numpy[healthy]"
        pool.report_failure(pool.slots[0])
        assert pool.slots[0].describe() == "numpy[ejected]"

    def test_trajectory_is_replayable(self):
        # Same failure trace, same eject/readmit history — no clocks.
        def run():
            pool = EnginePool(("numpy", "cpu-model"), eject_after=1, readmit_after=2)
            events = []
            pool.report_failure(pool.slots[0])
            events.append([s.name for s in pool.healthy_slots()])
            pool.report_success(pool.slots[1], None)
            pool.report_success(pool.slots[1], None)
            events.append([s.name for s in pool.healthy_slots()])
            return events, pool.stats.ejections, pool.stats.readmissions

        assert run() == run()


class TestElasticEnginePool:
    def test_ladder_cycles_template(self):
        pool = ElasticEnginePool(("gpu-sim", "cpu-model"), max_active=4)
        assert [s.name for s in pool.slots] == [
            "gpu-sim",
            "cpu-model",
            "gpu-sim#1",
            "cpu-model#1",
        ]

    def test_starts_at_min_active(self):
        pool = ElasticEnginePool(("gpu-sim",), min_active=2, max_active=4)
        assert pool.active == 2
        assert len(pool.healthy_slots()) == 2

    def test_scale_up_one_step_per_rebalance(self):
        pool = ElasticEnginePool(("gpu-sim",), min_active=1, max_active=3)
        assert pool.rebalance(10.0) == 2
        assert pool.rebalance(10.0) == 3
        # Bounded at max_active even under unbounded demand.
        assert pool.rebalance(100.0) == 3
        assert pool.scale_ups == 2
        assert pool.peak_active == 3

    def test_scale_down_when_demand_ebbs(self):
        pool = ElasticEnginePool(("gpu-sim",), min_active=1, max_active=3)
        pool.rebalance(10.0)
        pool.rebalance(10.0)
        assert pool.rebalance(0.0) == 2
        assert pool.rebalance(0.0) == 1
        # Floor at min_active.
        assert pool.rebalance(0.0) == 1
        assert pool.scale_downs == 2

    def test_hysteresis_band_holds_steady(self):
        pool = ElasticEnginePool(
            ("gpu-sim",), min_active=1, max_active=4,
            scale_up_at=0.8, scale_down_at=0.3,
        )
        # Utilization 0.5 sits inside the band: no flapping.
        for _ in range(5):
            assert pool.rebalance(0.5) == 1
        assert pool.scale_ups == 0 and pool.scale_downs == 0

    def test_health_counters_survive_scaling(self):
        pool = ElasticEnginePool(("gpu-sim",), min_active=1, max_active=2,
                                 eject_after=1)
        pool.rebalance(10.0)
        sick = pool.slots[1]
        pool.report_failure(sick)
        assert [s.name for s in pool.healthy_slots()] == ["gpu-sim"]
        pool.rebalance(0.0)  # retire the (ejected) newest slot
        pool.rebalance(10.0)  # bring it back: still ejected
        assert sick.failures_total == 1
        assert [s.name for s in pool.healthy_slots()] == ["gpu-sim"]

    def test_replayable(self):
        def run():
            pool = ElasticEnginePool(("gpu-sim", "cpu-model"), max_active=4)
            return [pool.rebalance(r) for r in (2.0, 5.0, 1.0, 0.0, 0.0, 3.0)]

        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ElasticEnginePool(())
        with pytest.raises(ValidationError):
            ElasticEnginePool(("gpu-sim",), min_active=3, max_active=2)
        with pytest.raises(ValidationError):
            ElasticEnginePool(("gpu-sim",), scale_up_at=0.3, scale_down_at=0.5)
        pool = ElasticEnginePool(("gpu-sim",))
        with pytest.raises(ValidationError):
            pool.rebalance(-1.0)


class TestTaxonomyIntegration:
    def test_launch_error_is_device_error(self):
        # The pool's callers catch DeviceError; LaunchError must qualify.
        from repro.errors import DeviceError

        assert issubclass(LaunchError, DeviceError)
