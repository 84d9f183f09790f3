"""Engine pool with per-engine health tracking.

The service schedules moment batches across a pool of
:class:`~repro.kpm.engines.MomentEngine` backends.  Health follows the
PR 2 fault taxonomy (:mod:`repro.errors`): a batch that dies with a
:class:`~repro.errors.DeviceError` — which covers
:class:`~repro.errors.OutOfMemoryError`, :class:`~repro.errors.LaunchError`,
:class:`~repro.errors.FaultError`, and
:class:`~repro.errors.DeviceLostError` — counts a strike against the
engine; ``eject_after`` strikes eject it from rotation, and after
``readmit_after`` further dispatches it is readmitted on probation.
Anything outside the taxonomy (e.g. a ``ValidationError`` from a bad
request) is the *request's* fault and never penalizes the engine.

All state is dispatch-counter based — no wall-clock timers — so the
eject/readmit trajectory is a pure function of the request trace.

:class:`ElasticEnginePool` (serving v2) adds capacity scaling on top:
the pool pre-instantiates ``max_active`` slots by cycling a
heterogeneous *template* (by default C2050-class ``gpu-sim`` devices
with a ``cpu-model`` fallback interleaved) but keeps only a prefix of
them in rotation.  The gateway feeds it the modeled demand rate —
admitted modeled-seconds of engine work per modeled second of clock —
and :meth:`~ElasticEnginePool.rebalance` grows or shrinks the active
prefix against utilization thresholds.  Scaling decisions are a pure
function of the ``rebalance`` call sequence, keeping the replay
deterministic.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field

from repro.errors import FaultError, ValidationError
from repro.kpm.engines import MomentEngine, get_engine
from repro.util.validation import check_positive_int

__all__ = ["EngineSlot", "PoolStats", "EnginePool", "ElasticEnginePool"]


@dataclass
class EngineSlot:
    """One pooled engine plus its health counters."""

    engine: MomentEngine
    name: str
    healthy: bool = True
    strikes: int = 0
    ejected_at: int | None = None
    batches_served: int = 0
    failures_total: int = 0

    def describe(self) -> str:
        """Short human-readable state, e.g. ``"gpu-sim[healthy]"``."""
        state = "healthy" if self.healthy else "ejected"
        return f"{self.name}[{state}]"


def _runs_doubling(slot: EngineSlot) -> bool:
    """Whether the slot's engine runs the ``use_doubling`` recursion."""
    return getattr(slot.engine, "supports_doubling", True)


@dataclass
class PoolStats:
    """Counters the pool exposes to the service metrics."""

    dispatches: int = 0
    ejections: int = 0
    readmissions: int = 0
    failures: int = 0
    modeled_seconds_by_engine: dict[str, float] = field(default_factory=dict)


class EnginePool:
    """Deterministic health-tracked pool of moment engines.

    Parameters
    ----------
    backends:
        Registry names and/or ready engine instances (anything
        :func:`repro.kpm.get_engine` accepts).  Duplicate names get a
        positional suffix (``gpu-sim#1``) so health is tracked per slot.
    eject_after:
        Consecutive taxonomy failures before a slot leaves rotation.
    readmit_after:
        Pool dispatches an ejected slot sits out before probation.
    """

    def __init__(
        self,
        backends=("numpy",),
        *,
        eject_after: int = 1,
        readmit_after: int = 4,
    ):
        backends = tuple(backends)
        if not backends:
            raise ValidationError("backends must name at least one engine")
        self.eject_after = check_positive_int(eject_after, "eject_after")
        self.readmit_after = check_positive_int(readmit_after, "readmit_after")
        self.slots: list[EngineSlot] = []
        seen: dict[str, int] = {}
        for backend in backends:
            engine = get_engine(backend)
            count = seen.get(engine.name, 0)
            seen[engine.name] = count + 1
            label = engine.name if count == 0 else f"{engine.name}#{count}"
            self.slots.append(EngineSlot(engine=engine, name=label))
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Readmit slots whose sit-out period has elapsed."""
        for slot in self.slots:
            if (
                not slot.healthy
                and slot.ejected_at is not None
                and self.stats.dispatches - slot.ejected_at >= self.readmit_after
            ):
                slot.healthy = True
                slot.strikes = 0
                slot.ejected_at = None
                self.stats.readmissions += 1

    def healthy_slots(self) -> list[EngineSlot]:
        """Slots currently in rotation (after due readmissions)."""
        self._refresh()
        return [slot for slot in self.slots if slot.healthy]

    def runs_doubling(self) -> bool:
        """Whether any slot, in rotation or not, runs ``use_doubling``."""
        return any(_runs_doubling(slot) for slot in self.slots)

    def candidates(self, *, excluding=(), doubling: bool = False) -> list[EngineSlot]:
        """Healthy slots in rotation that can take a batch.

        ``excluding`` removes slots already tried for the batch.  A
        ``doubling`` batch is offered only engines that run the doubling
        recursion; when none of those is in rotation, healthy ones held
        outside it (an elastic pool's standby slots) take the batch
        rather than fail it.
        """
        slots = [s for s in self.healthy_slots() if s not in excluding]
        if doubling:
            slots = [s for s in slots if _runs_doubling(s)] or [
                s
                for s in self.slots
                if s.healthy and s not in excluding and _runs_doubling(s)
            ]
        return slots

    def select(
        self, affinity: int, *, excluding=(), doubling: bool = False
    ) -> EngineSlot:
        """Pick the slot for a batch with stable ``affinity``.

        ``affinity`` is any deterministic integer attached to the batch's
        key (the service uses the key's first-appearance index), so a
        given workload keeps hitting the same engine while the pool
        membership is unchanged.  ``excluding`` and ``doubling`` narrow
        the choice as in :meth:`candidates`.
        """
        candidates = self.candidates(excluding=excluding, doubling=doubling)
        if not candidates:
            needed = "engine running use_doubling=True" if doubling else "engine"
            raise FaultError(
                f"no healthy {needed} available: "
                + ", ".join(slot.describe() for slot in self.slots)
            )
        return candidates[affinity % len(candidates)]

    # ------------------------------------------------------------------
    def report_success(self, slot: EngineSlot, modeled_seconds: float | None) -> None:
        """Record a served batch; clears the slot's strike count."""
        self.stats.dispatches += 1
        slot.batches_served += 1
        slot.strikes = 0
        if modeled_seconds is not None:
            totals = self.stats.modeled_seconds_by_engine
            totals[slot.name] = totals.get(slot.name, 0.0) + float(modeled_seconds)

    def report_failure(self, slot: EngineSlot) -> None:
        """Record a taxonomy failure; ejects the slot at ``eject_after``."""
        self.stats.dispatches += 1
        self.stats.failures += 1
        slot.failures_total += 1
        slot.strikes += 1
        if slot.healthy and slot.strikes >= self.eject_after:
            slot.healthy = False
            slot.ejected_at = self.stats.dispatches
            self.stats.ejections += 1


class ElasticEnginePool(EnginePool):
    """Health-tracked pool whose capacity follows modeled demand.

    Parameters
    ----------
    template:
        Backend specs cycled to build the slot ladder — heterogeneous by
        default: simulated C2050-class devices with the CPU cost model
        interleaved as overflow capacity.  Slot ``i`` is
        ``template[i % len(template)]``, so which device class joins at
        each scale step is fixed at construction.
    min_active / max_active:
        Bounds on the in-rotation prefix.  All ``max_active`` slots are
        instantiated up front (simulated devices are free to hold);
        scaling only moves the prefix boundary, never re-creates
        engines, so health counters survive scale-downs.
    scale_up_at / scale_down_at:
        Utilization thresholds (demand rate / active slots).  Crossing
        ``scale_up_at`` adds one slot per rebalance; dropping below
        ``scale_down_at`` retires the newest.  ``scale_down_at`` must
        stay below ``scale_up_at`` to rule out flapping on a constant
        load.
    """

    def __init__(
        self,
        template=("gpu-sim", "cpu-model"),
        *,
        min_active: int = 1,
        max_active: int = 4,
        scale_up_at: float = 0.8,
        scale_down_at: float = 0.3,
        eject_after: int = 1,
        readmit_after: int = 4,
    ):
        template = tuple(template)
        if not template:
            raise ValidationError("template must name at least one backend")
        self.min_active = check_positive_int(min_active, "min_active")
        self.max_active = check_positive_int(max_active, "max_active")
        if self.min_active > self.max_active:
            raise ValidationError(
                f"min_active ({self.min_active}) must not exceed "
                f"max_active ({self.max_active})"
            )
        self.scale_up_at = float(scale_up_at)
        self.scale_down_at = float(scale_down_at)
        if not (
            math.isfinite(self.scale_up_at)
            and math.isfinite(self.scale_down_at)
            and 0.0 <= self.scale_down_at < self.scale_up_at
        ):
            raise ValidationError(
                "need 0 <= scale_down_at < scale_up_at, got "
                f"scale_down_at={scale_down_at}, scale_up_at={scale_up_at}"
            )
        ladder = [template[i % len(template)] for i in range(self.max_active)]
        super().__init__(
            ladder, eject_after=eject_after, readmit_after=readmit_after
        )
        self._active = self.min_active
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak_active = self._active

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Slots currently in rotation (prefix length)."""
        return self._active

    def healthy_slots(self) -> list[EngineSlot]:
        """Healthy slots within the active prefix."""
        self._refresh()
        return [slot for slot in self.slots[: self._active] if slot.healthy]

    def rebalance(self, demand_rate: float) -> int:
        """Adjust capacity to ``demand_rate``; returns the active count.

        ``demand_rate`` is the gateway's running estimate of admitted
        engine work per modeled second.  Each slot retires roughly one
        modeled-second of work per modeled second, so utilization is
        ``demand_rate / active``; one rebalance moves the boundary at
        most one step, so capacity ramps rather than jumps.
        """
        demand_rate = float(demand_rate)
        if not math.isfinite(demand_rate) or demand_rate < 0.0:
            raise ValidationError(
                f"demand_rate must be a non-negative finite number, "
                f"got {demand_rate}"
            )
        utilization = demand_rate / self._active
        if utilization > self.scale_up_at and self._active < self.max_active:
            self._active += 1
            self.scale_ups += 1
            self.peak_active = max(self.peak_active, self._active)
        elif utilization < self.scale_down_at and self._active > self.min_active:
            self._active -= 1
            self.scale_downs += 1
        return self._active
