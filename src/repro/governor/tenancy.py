"""Multi-tenant contention on one simulated socket.

2-4 co-scheduled tenants share the socket's uncore: one LLC, one DRAM
pipe, and -- critically for capping -- *one* uncore frequency domain.  The
per-kernel-in-isolation cap the PolyUFC pipeline emits is no longer
obviously right: the socket frequency must serve the whole co-resident
combination.

Contention is modelled in two places:

* **LLC capacity**: with ``n`` active tenants each effectively owns a
  ``1/n`` slice, so a fraction of each kernel's LLC *hits* are displaced
  to DRAM (``llc_displacement`` scales how many), growing its DRAM
  traffic via :func:`repro.hw.governor.contended_workload`;
* **DRAM bandwidth**: per interval, each tenant's standalone demand is
  summed; past the roofline the shared pipe stretches everyone's memory
  time proportionally, applied through the ``dram_bw_fraction`` hook in
  :func:`repro.hw.execution.memory_time_s`.

:func:`run_multitenant` co-simulates the tenants interval by interval,
one lane each on the shared engine (:func:`repro.hw.governor.run_intervals`),
under a pluggable :class:`SocketPolicy` choosing the shared frequency:
isolation-max static caps, the model-side joint solve
(:func:`repro.search.joint.joint_cap_search`), a reactive UFS-style
stepper, the online adaptive hill-climb, and a ground-truth per-combo
oracle.  Frequency changes pay the driver overhead at idle power, exactly
as single-tenant drivers charge it, but booked to the socket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.governor.adaptive import HillClimb
from repro.hw.execution import (
    KernelWorkload,
    compute_time_s,
    instant_power_w,
    memory_time_s,
    uncore_time_s,
)
from repro.hw.governor import (
    IntervalPolicy,
    SequenceResult,
    TenantKernel,
    reactive_step,
    run_intervals,
)
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class Tenant:
    """One co-scheduled tenant: an ordered queue of kernels."""

    name: str
    kernels: Tuple[TenantKernel, ...]


@dataclass(frozen=True)
class TenancyConfig:
    """Co-simulation parameters."""

    interval_s: float = 200e-6
    #: fraction of the LLC hits displaced by capacity sharing that become
    #: DRAM line fetches (the rest still hit, e.g. shared read-only data)
    llc_displacement: float = 0.5
    max_intervals: int = 2_000_000


@dataclass(frozen=True)
class SocketStep:
    """Ground-truth socket state for one combination at one frequency."""

    full_times: Tuple[float, ...]
    tenant_powers: Tuple[float, ...]  # attributable (core + DRAM) per tenant
    kernel_powers: Tuple[float, ...]  # attributable + even shared share
    socket_power_w: float
    boundedness: float  # aggregate uncore-side pressure, drives reactive
    #: EDP-density proxy P * max_i(T_i)^2 -- socket power times the
    #: squared critical path, the combo-level twin of the per-kernel
    #: ``power * T**2`` score (socket EDP is energy times *makespan*)
    score: float


def socket_step(
    platform: PlatformSpec,
    workloads: Sequence[KernelWorkload],
    f_ghz: float,
    prefetch: bool = True,
) -> SocketStep:
    """Evaluate the co-resident combination at one shared frequency.

    Bandwidth sharing is proportional: standalone demands are summed and,
    past the pipe's capacity, every tenant's DRAM-bound term is scaled by
    the same oversubscription fraction.
    """
    rho = platform.overlap_rho
    t_computes = [compute_time_s(platform, wl) for wl in workloads]
    t_mem0 = [
        memory_time_s(platform, wl, f_ghz, prefetch) for wl in workloads
    ]
    full0 = [
        max(tc, tm) + rho * min(tc, tm)
        for tc, tm in zip(t_computes, t_mem0)
    ]
    demand = sum(
        wl.dram_bytes / ft
        for wl, ft in zip(workloads, full0)
        if ft > 0 and wl.dram_bytes
    )
    capacity = platform.dram_bandwidth(f_ghz)
    fraction = 1.0
    if demand > 0 and capacity > 0:
        fraction = min(1.0, capacity / demand)
    t_memories = [
        memory_time_s(
            platform, wl, f_ghz, prefetch, dram_bw_fraction=fraction
        )
        for wl in workloads
    ]
    full_times = [
        max(tc, tm) + rho * min(tc, tm)
        for tc, tm in zip(t_computes, t_memories)
    ]
    # Socket power: the constant and the (shared-domain) uncore terms are
    # counted once; core and DRAM terms are per-tenant and attributable.
    uncore_util = bound_num = bound_den = 0.0
    tenant_powers: List[float] = []
    for wl, tc, tm, ft in zip(workloads, t_computes, t_memories, full_times):
        if ft <= 0:
            tenant_powers.append(0.0)
            continue
        mem_util = min(1.0, tm / ft)
        uncore_util = max(uncore_util, mem_util)
        total = instant_power_w(platform, wl, f_ghz, tc, tm, ft)
        tenant_powers.append(
            total
            - platform.p_constant_w
            - platform.uncore_power_w(f_ghz, mem_util)
        )
        t_unc = uncore_time_s(
            platform, wl, f_ghz, prefetch, dram_bw_fraction=fraction
        )
        bound_num += min(1.0, t_unc / ft) * ft
        bound_den += ft
    socket_power = (
        platform.p_constant_w
        + platform.uncore_power_w(f_ghz, uncore_util)
        + sum(tenant_powers)
    )
    shared = platform.p_constant_w + (
        socket_power - platform.p_constant_w - sum(tenant_powers)
    )  # the constant and the single shared uncore term
    makespan = max(full_times, default=0.0)
    return SocketStep(
        full_times=tuple(full_times),
        tenant_powers=tuple(tenant_powers),
        kernel_powers=tuple(
            p + shared / len(workloads) for p in tenant_powers
        ),
        socket_power_w=socket_power,
        boundedness=bound_num / bound_den if bound_den else 0.0,
        score=socket_power * makespan * makespan,
    )


ComboKey = Tuple[Tuple[str, str], ...]  # ((tenant, kernel), ...)


class SocketPolicy(IntervalPolicy):
    """Chooses the shared uncore frequency, once per control interval.

    ``frequency`` receives the active combination (units carrying the
    contended workloads the run simulates), the frequency currently set,
    and the ground-truth feedback measured over the interval that just
    elapsed at that frequency (``None`` if on another combination).
    """

    name = "socket-policy"
    carries_interval = False
    books_to_socket = True
    platform: PlatformSpec
    _combo: Optional[ComboKey] = None

    def frequency(
        self,
        combo: ComboKey,
        units: Sequence[TenantKernel],
        current_ghz: float,
        feedback: Optional[SocketStep],
    ) -> float:
        raise NotImplementedError

    def evaluate(self, platform, workloads, f_ghz, prefetch):
        return socket_step(platform, workloads, f_ghz, prefetch)

    def before_step(self, combo, units, freq, last):
        if freq is None or combo != self._combo:
            self._combo, last = combo, None  # measured on another combo
        uncore = self.platform.uncore
        target = uncore.clamp(self.frequency(
            combo, units, uncore.f_max_ghz if freq is None else freq, last,
        ))
        if freq is None or abs(target - freq) > 1e-9:
            return target
        return None


class IsolationMaxPolicy(SocketPolicy):
    """Static caps as shipped: the socket runs at the *max* of the active
    tenants' isolation caps (the uncore domain cannot be split), missing
    caps defaulting to ``f_max``.  The per-kernel-in-isolation baseline
    every joint scheme is judged against."""

    name = "static-isolation"

    def __init__(self, platform: PlatformSpec):
        self.platform = platform

    def frequency(self, combo, units, current_ghz, feedback):
        caps = [
            unit.cap_ghz
            if unit.cap_ghz is not None
            else self.platform.uncore.f_max_ghz
            for unit in units
        ]
        return max(caps) if caps else self.platform.uncore.f_max_ghz


class JointModelPolicy(SocketPolicy):
    """Compile-time joint solve per combination, from the PolyUFC models.

    Falls back to isolation-max for combinations where any tenant lacks
    model-side counters (e.g. a cold service miss).
    """

    name = "joint-model"

    def __init__(self, platform: PlatformSpec, constants):
        self.platform = platform
        self.constants = constants
        self._fallback = IsolationMaxPolicy(platform)
        self._memo: Dict[ComboKey, float] = {}

    def frequency(self, combo, units, current_ghz, feedback):
        cached = self._memo.get(combo)
        if cached is not None:
            return cached
        summaries = [unit.summary for unit in units]
        if any(summary is None for summary in summaries) or not summaries:
            freq = self._fallback.frequency(combo, units, current_ghz, feedback)
        else:
            from repro.search.joint import joint_cap_search

            freq = joint_cap_search(
                self.constants,
                summaries,
                self.platform.uncore.frequencies(),
            ).f_ghz
        self._memo[combo] = freq
        return freq


class ReactiveSocketPolicy(SocketPolicy):
    """UFS-style stepper on aggregate socket boundedness (sticky-high)."""

    name = "reactive"

    def __init__(
        self,
        platform: PlatformSpec,
        up_step_ghz: float = 0.2,
        down_step_ghz: float = 0.05,
        high_boundedness: float = 0.25,
        low_boundedness: float = 0.04,
        start_fraction: float = 0.85,
    ):
        self.platform = platform
        self.up_step_ghz = up_step_ghz
        self.down_step_ghz = down_step_ghz
        self.high_boundedness = high_boundedness
        self.low_boundedness = low_boundedness
        self.start_fraction = start_fraction
        self._started = False

    def frequency(self, combo, units, current_ghz, feedback):
        if not self._started:
            self._started = True
            return self.platform.uncore.clamp(
                self.start_fraction * self.platform.uncore.f_max_ghz
            )
        if feedback is None:
            return current_ghz
        return reactive_step(
            self.platform.uncore, current_ghz, feedback.boundedness, self
        )


class AdaptiveSocketPolicy(SocketPolicy):
    """Online hill-climb on the measured socket score, per combination.

    Seeds each new combination from isolation-max caps, then probes
    +-``step_ghz`` on the ground-truth feedback score, reverting failed
    probes and settling once both directions reject -- the socket-level
    twin of :func:`repro.governor.adaptive.run_adaptive_sequence`.
    """

    name = "adaptive"

    def __init__(
        self,
        platform: PlatformSpec,
        step_ghz: float = 0.1,
        explore_margin: float = 0.005,
        settle_intervals: int = 50,
    ):
        self.platform = platform
        self.step_ghz = step_ghz
        self.explore_margin = explore_margin
        self.settle_intervals = settle_intervals
        self._seed = IsolationMaxPolicy(platform)
        self._climbs: Dict[ComboKey, HillClimb] = {}

    def frequency(self, combo, units, current_ghz, feedback):
        climb = self._climbs.get(combo)
        if climb is None:
            seed = self.platform.uncore.clamp(
                self._seed.frequency(combo, units, current_ghz, feedback)
            )
            self._climbs[combo] = HillClimb(seed, direction=-1)
            return seed
        if feedback is None:
            return climb.base_ghz
        return climb.decide(
            feedback.score, current_ghz, self.platform.uncore, self
        )


class FixedFrequencyPolicy(SocketPolicy):
    """One pinned socket frequency for the whole run (hindsight sweeps)."""

    name = "fixed"

    def __init__(self, platform: PlatformSpec, f_ghz: float):
        self.platform = platform
        self.f_ghz = platform.uncore.clamp(f_ghz)

    def frequency(self, combo, units, current_ghz, feedback):
        return self.f_ghz


class OracleSocketPolicy(SocketPolicy):
    """Ground-truth per-combination greedy: grid argmin of the contended
    socket score.  Unreachable online (it evaluates the real contention
    model at every frequency before running), but still *myopic* -- it
    cannot see across combination boundaries, so :func:`hindsight_oracle`
    is the reported lower bound."""

    name = "oracle"

    def __init__(self, platform: PlatformSpec, prefetch: bool = True):
        self.platform = platform
        self.prefetch = prefetch
        self._memo: Dict[ComboKey, float] = {}

    def frequency(self, combo, units, current_ghz, feedback):
        cached = self._memo.get(combo)
        if cached is None:
            # the units carry the run's own contended workloads
            workloads = [unit.workload for unit in units]
            cached = self._memo[combo] = min(
                self.platform.uncore.frequencies(),
                key=lambda f: socket_step(
                    self.platform, workloads, f, self.prefetch
                ).score,
            )
        return cached


def hindsight_oracle(
    platform: PlatformSpec,
    tenants: Sequence[Tenant],
    config: TenancyConfig = TenancyConfig(),
    prefetch: bool = True,
) -> SequenceResult:
    """The reported multi-tenant lower bound: the best *realized* EDP over
    every fixed grid frequency held for the whole trace plus the
    per-combination greedy.  Per-combo greedy argmins do not compose into
    a trace-level optimum (combination boundaries shift), so the sweep
    over full-run schedules is what actually bounds the online policies.
    """
    grid = platform.uncore.frequencies()
    policies = [FixedFrequencyPolicy(platform, f) for f in grid]
    policies.append(OracleSocketPolicy(platform, prefetch))
    return min(
        (run_multitenant(platform, tenants, p, config, prefetch)
         for p in policies),
        key=lambda result: result.edp,
    )


def run_multitenant(
    platform: PlatformSpec,
    tenants: Sequence[Tenant],
    policy: SocketPolicy,
    config: TenancyConfig = TenancyConfig(),
    prefetch: bool = True,
) -> SequenceResult:
    """Co-simulate tenants under one shared uncore frequency.

    Returns socket totals: ``time_s`` is the makespan, ``energy_j`` the
    socket energy; ``runs`` records each kernel completion with its
    attributed (core + DRAM + shared-term share) energy.  Driver-write
    overhead on frequency changes stalls the whole socket and is charged
    to the socket totals.
    """
    if not 1 <= len(tenants) <= 8:
        raise ValueError("run_multitenant expects 1-8 tenants")
    return run_intervals(
        platform,
        [(tenant.name, tenant.kernels) for tenant in tenants],
        policy,
        config.interval_s,
        config.max_intervals,
        prefetch,
        config.llc_displacement,
    )
