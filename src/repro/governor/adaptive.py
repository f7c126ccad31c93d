"""Cuttlefish-style online adaptive uncore controller.

The static PolyUFC cap is a *compile-time* decision; this module supplies
its production counterpart: an online controller that *seeds* each kernel's
uncore frequency from the service-provided static cap and then hill-climbs
per control interval on simulated RAPL/counter feedback -- memory
boundedness, DRAM traffic, and instant package power.  The climb minimizes
the per-kernel EDP density ``power * full_time**2`` (proportional to the
kernel's EDP at that frequency), the same objective ``polyufc_search``
optimizes analytically.

Costs are modelled honestly:

* every frequency move pays the platform's driver-write overhead at idle
  power, exactly as ``run_capped_sequence`` charges cap changes;
* a probe that made things worse must *revert* (a second paid move);
* converged kernels still re-probe periodically (``settle_intervals``), the
  price a trust-nothing online controller pays on steady traces.

Learned per-kernel frequencies persist across occurrences within an
:class:`AdaptiveController`, so a phase-change trace pays the climb once
per distinct kernel, not once per occurrence.

The controller is an :class:`AdaptivePolicy` on the shared interval
engine; its :class:`HillClimb` also drives ``AdaptiveSocketPolicy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

# memory_time_s stays importable here: perfbench/tracing.py patches it
from repro.hw.execution import KernelWorkload, memory_time_s  # noqa: F401
from repro.hw.governor import (
    IntervalPolicy,
    SequenceResult,
    TenantKernel,
    run_intervals,
)
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class AdaptiveConfig:
    """Online controller parameters.

    ``step_ghz`` matches the platform cap grid so the climb lands on the
    same frequencies ``polyufc_search`` can select.  ``explore_margin`` is
    the relative score improvement a probe must show to be kept -- below
    it the move is judged noise and reverted.  ``settle_intervals`` is how
    long a converged kernel holds its frequency before re-probing.
    """

    interval_s: float = 200e-6
    step_ghz: float = 0.1
    explore_margin: float = 0.005
    settle_intervals: int = 50
    high_boundedness: float = 0.15
    start_fraction: float = 0.7
    max_intervals: int = 2_000_000


@dataclass
class AdaptiveController:
    """Per-kernel learned frequency state, persistent across a trace.

    Seeding priority for a kernel occurrence: previously *learned*
    frequency (feedback beats any prior) > the service's static PolyUFC
    cap > ``start_fraction * f_max``.
    """

    platform: PlatformSpec
    config: AdaptiveConfig = AdaptiveConfig()
    learned: Dict[str, float] = field(default_factory=dict)

    def seed_freq(
        self, workload: KernelWorkload, cap_ghz: Optional[float]
    ) -> float:
        uncore = self.platform.uncore
        if workload.name in self.learned:
            return uncore.clamp(self.learned[workload.name])
        if cap_ghz is not None:
            return uncore.clamp(cap_ghz)
        return uncore.clamp(self.config.start_fraction * uncore.f_max_ghz)

    def remember(self, workload: KernelWorkload, freq_ghz: float) -> None:
        self.learned[workload.name] = freq_ghz


@dataclass
class HillClimb:
    """Probe-and-revert climb around a base frequency, one decision per
    control interval: a probe one ``step_ghz`` away must beat the base's
    score by ``explore_margin`` or is reverted; after both directions
    reject, hold ``settle_intervals``.  ``params`` carries those fields
    (:class:`AdaptiveConfig`, ``AdaptiveSocketPolicy``).
    """

    base_ghz: float
    direction: int = 0
    base_score: Optional[float] = None
    probing: bool = False
    failed_directions: int = 0
    settle: int = 0

    def decide(
        self, measured: float, current_ghz: float, uncore, params
    ) -> float:
        """The frequency to run next, given the score ``measured`` over
        the interval just spent at ``current_ghz``."""
        if self.settle > 0:
            self.settle -= 1
            if self.settle == 0:
                self.base_score = None  # stale after holding; re-measure
            return self.base_ghz
        if not self.probing:
            self.base_score = measured
            target = uncore.clamp(
                self.base_ghz + self.direction * params.step_ghz
            )
            if abs(target - self.base_ghz) <= 1e-9:
                # pinned against a bound: try the other way once
                self._reject_direction(params)
                return self.base_ghz
            self.probing = True
            return target
        # -- a probe interval just finished
        self.probing = False
        if self.base_score is not None and measured < self.base_score * (
            1.0 - params.explore_margin
        ):
            self.base_ghz = current_ghz
            self.base_score = measured
            self.failed_directions = 0
            return current_ghz  # keep climbing the same direction
        # worse (or flat): revert to base, flip direction
        self._reject_direction(params)
        return self.base_ghz

    def _reject_direction(self, params) -> None:
        self.direction = -self.direction
        self.failed_directions += 1
        if self.failed_directions >= 2:
            # both directions rejected: converged; hold, then re-probe
            self.failed_directions = 0
            self.settle = params.settle_intervals


class AdaptivePolicy(IntervalPolicy):
    """Per-kernel :class:`HillClimb` on the interval-mean EDP density,
    restarted from the controller's seed at each kernel occurrence.  The
    seed write is paid even on the first kernel, exactly as
    ``run_capped_sequence`` charges its first cap."""

    carries_interval = False
    pays_for_first_write = True
    records_base_frequency = True
    feedback = "edp_density"

    def __init__(
        self,
        platform: PlatformSpec,
        config: AdaptiveConfig,
        controller: AdaptiveController,
    ):
        super().__init__(platform, config)
        self.controller = controller

    @property
    def base_ghz(self) -> float:
        return self.climb.base_ghz

    def begin(self, combo, units, freq):
        (unit,) = units
        seed = self.controller.seed_freq(unit.workload, unit.cap_ghz)
        self.climb = HillClimb(seed)
        if freq is None or abs(seed - freq) > 1e-9:
            return seed
        return None

    def interval_end(self, freq, step, mean):
        if self.climb.direction == 0:
            # initial probe direction from memory boundedness: a
            # bandwidth-hungry kernel explores up, a compute-bound
            # kernel explores down.
            bound = step.uncore_boundedness
            self.climb.direction = (
                1 if bound > self.config.high_boundedness else -1
            )
        target = self.climb.decide(
            mean, freq, self.platform.uncore, self.config
        )
        return None if abs(target - freq) <= 1e-9 else target

    def kernel_done(self, unit):
        self.controller.remember(unit.workload, self.base_ghz)


def run_adaptive_sequence(
    platform: PlatformSpec,
    items: Sequence[Tuple[KernelWorkload, Optional[float]]],
    config: AdaptiveConfig = AdaptiveConfig(),
    prefetch: bool = True,
    controller: Optional[AdaptiveController] = None,
) -> SequenceResult:
    """Run kernels under the adaptive controller.

    ``items`` pairs each kernel with its static cap (``None`` = no cap
    known, e.g. a cold service miss), like ``run_capped_sequence``.  Pass a
    shared ``controller`` to persist learned frequencies across calls.
    """
    return run_intervals(
        platform,
        [(None, [TenantKernel(workload, cap) for workload, cap in items])],
        AdaptivePolicy(
            platform, config,
            controller or AdaptiveController(platform, config),
        ),
        config.interval_s,
        config.max_intervals,
        prefetch,
    )


def oracle_caps(
    platform: PlatformSpec,
    workloads: Sequence[KernelWorkload],
    prefetch: bool = True,
) -> List[float]:
    """Per-kernel EDP-optimal frequency by exhaustive noise-free sweep.

    The unreachable lower bound every online policy is judged against: it
    knows each kernel's whole EDP landscape before running it.
    """
    from repro.hw.execution import execute_fixed

    return [
        min(
            platform.uncore.frequencies(),
            key=lambda f: execute_fixed(
                platform, workload, f, prefetch, noisy=False
            ).edp,
        )
        for workload in workloads
    ]
