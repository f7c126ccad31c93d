"""Uncore frequency drivers on one interval engine, plus static caps.

Every runtime driver runs on :func:`run_intervals`, which alone slices
time at control-interval and kernel boundaries, enforces
``max_intervals``, charges driver writes and books ``RunResult``s.  A
driver is an :class:`IntervalPolicy` whose class attributes state how it
differs from the others; a single-tenant run is a one-tenant socket.

The reactive policy here models the stock Intel uncore frequency scaling
driver: it observes memory boundedness per interval and steps the uncore
up quickly (to protect performance) or down slowly (to save power).  Its
control-loop latency is what compiler-inserted static caps beat: a
bandwidth-bound kernel starts below the bandwidth-saturation frequency,
and a compute-bound kernel runs mostly above the EDP-optimal one.

``run_capped_sequence`` models PolyUFC-generated binaries: each kernel runs
at its embedded cap, and every cap *change* charges the measured driver
overhead (35us on BDW, 21us on RPL, Sec. VII-F).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.hw.execution import (
    KernelWorkload,
    RunResult,
    compute_time_s,
    execute_fixed,
    instant_power_w,
    memory_time_s,
    uncore_time_s,
)
from repro.hw.platform import PlatformSpec

if TYPE_CHECKING:
    from repro.model.parametric import KernelSummary


@dataclass(frozen=True)
class GovernorConfig:
    """Reactive uncore driver parameters.

    Defaults model the stock driver's sticky-high behaviour: any noticeable
    memory activity ramps the uncore up quickly, and it descends only very
    slowly when the memory system looks idle.  That is near-optimal for
    bandwidth-bound performance and systematically over-provisioned for
    compute-bound kernels -- the inefficiency Sec. I motivates.
    """

    interval_s: float = 500e-6
    up_step_ghz: float = 0.2
    down_step_ghz: float = 0.05
    high_boundedness: float = 0.25
    low_boundedness: float = 0.04
    start_fraction: float = 0.85  # initial f as a fraction of f_max
    max_intervals: int = 2_000_000


@dataclass
class SequenceResult:
    """Execution of a kernel sequence (totals plus per-kernel runs).

    ``warnings`` carries structured anomalies from the simulated run --
    today that is interval-budget exhaustion (``max_intervals``), which
    truncates the run instead of raising so long sweeps degrade loudly
    rather than die; ``truncated`` is True iff such a warning is present.
    """

    runs: List[RunResult]
    time_s: float
    energy_j: float
    cap_switches: int = 0
    warnings: List[str] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return any(
            warning.startswith("max_intervals") for warning in self.warnings
        )

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s else 0.0

    @property
    def edp(self) -> float:
        return self.energy_j * self.time_s


def exhaustion_warning(
    budget: int,
    kernel: str,
    index: int,
    total: int,
    progress: float,
) -> str:
    """The structured ``max_intervals`` truncation warning.

    One format for every policy on the interval engine, machine-matchable
    via ``SequenceResult.truncated``.
    """
    return (
        f"max_intervals={budget} exhausted in kernel {kernel!r} "
        f"({index + 1}/{total}, {progress:.1%} done); "
        f"remaining work truncated"
    )


def driver_write(platform: PlatformSpec, f_ghz: float) -> Tuple[float, float]:
    """``(time_s, energy_j)`` of one uncore driver write setting ``f_ghz``:
    the platform's measured overhead, stalled at constant + idle uncore
    power."""
    overhead = platform.cap_overhead_s
    idle_power = platform.p_constant_w + platform.uncore_power_w(f_ghz, 0.0)
    return overhead, idle_power * overhead


def contended_workload(
    workload: KernelWorkload,
    share: float,
    line_bytes: int,
    llc_displacement: float = 0.5,
) -> KernelWorkload:
    """The workload as seen with only ``share`` of the LLC capacity.

    Displaced hits are re-billed as DRAM line fetches; private-cache
    traffic and flops are untouched.
    """
    if share >= 1.0 or len(workload.level_accesses) < 3:
        return workload
    llc_hits = max(0, workload.level_accesses[2] - workload.dram_lines)
    moved = int(llc_displacement * (1.0 - share) * llc_hits)
    if moved <= 0:
        return workload
    return dataclasses.replace(
        workload,
        dram_fetch_bytes=workload.dram_fetch_bytes + moved * line_bytes,
        dram_lines=workload.dram_lines + moved,
    )


@dataclass(frozen=True)
class TenantKernel:
    """One kernel in a tenant's queue: hw workload + optional model side."""

    workload: KernelWorkload
    cap_ghz: Optional[float] = None
    summary: Optional[KernelSummary] = None


class Step(NamedTuple):
    """One kernel alone at one frequency (``SocketStep``: a socket)."""

    full_times: Tuple[float, ...]
    kernel_powers: Tuple[float, ...]  # power booked to each kernel
    socket_power_w: float
    memory_boundedness: float  # t_memory / T
    uncore_boundedness: float  # uncore_time / T (LLC + DRAM share)
    edp_density: float  # power * T**2, proportional to the kernel's EDP


class IntervalPolicy:
    """A frequency driver on :func:`run_intervals`.

    Hooks: ``begin`` when the set of active kernels changes,
    ``before_step`` before each step within the budget (``last``: the
    previous step), ``interval_end`` when a control interval elapses,
    ``kernel_done`` when a kernel completes or the budget stops it.  A
    returned frequency asks for a driver write; ``None`` holds.
    """

    #: the control interval runs on across kernel boundaries; False
    #: restarts it (and its feedback) whenever the active kernels change
    carries_interval = True
    #: a move pays the driver write and counts as a cap switch
    pays_for_moves = True
    #: the run's first frequency setting is a paid write as well
    pays_for_first_write = False
    #: the socket is the unit of account: energy and write overhead
    #: accrue to socket totals per step, a kernel completes within 1e-12
    #: of its work, and a truncated run lists completed kernels only.
    #: Otherwise writes are booked to the running kernel, totals are the
    #: sums of the runs (a truncated kernel's partial run included) and
    #: progress must reach 1.0
    books_to_socket = False
    #: runs record ``base_ghz``, not the frequency set at the kernel's end
    records_base_frequency = False
    #: the :class:`Step` field whose time-weighted mean over the interval
    #: ``interval_end`` receives; None: the policy reads the steps
    feedback: Optional[str] = None

    def __init__(self, platform: PlatformSpec, config=None):
        self.platform = platform
        self.config = config

    def evaluate(self, platform, workloads, f_ghz, prefetch) -> Step:
        """One kernel alone at ``f_ghz``: the execution model's laws."""
        (workload,) = workloads
        t_compute = compute_time_s(platform, workload)
        t_memory = memory_time_s(platform, workload, f_ghz, prefetch)
        full_time = max(t_compute, t_memory) + platform.overlap_rho * min(
            t_compute, t_memory
        )
        power = instant_power_w(
            platform, workload, f_ghz, t_compute, t_memory, full_time
        )
        t_uncore = uncore_time_s(platform, workload, f_ghz, prefetch)
        return Step(
            (full_time,), (power,), power,
            t_memory / full_time if full_time else 0.0,
            t_uncore / full_time if full_time else 0.0,
            power * full_time * full_time,
        )

    def begin(self, combo, units, freq) -> Optional[float]:
        return None

    def before_step(self, combo, units, freq, last) -> Optional[float]:
        return None

    def interval_end(self, freq: float, step, mean: float) -> Optional[float]:
        return None

    def kernel_done(self, unit) -> None:
        pass


def run_intervals(
    platform: PlatformSpec,
    lanes: Sequence[Tuple[Optional[str], Sequence[TenantKernel]]],
    policy: IntervalPolicy,
    interval_s: float,
    max_intervals: int,
    prefetch: bool = True,
    llc_displacement: float = 0.5,
    start_ghz: Optional[float] = None,
) -> SequenceResult:
    """Run queues of kernels side by side on one socket under ``policy``.

    A lane is ``(name, units)``: :class:`TenantKernel` units run in
    order, their runs named ``"name:kernel"`` (the kernel alone for a None
    name).  With ``n`` lanes active each kernel keeps ``1/n`` of the LLC
    (:func:`contended_workload`); policies see units carrying those
    contended workloads.  The socket starts at ``start_ghz`` (None: the
    policy's first write sets it).  A step ends at the interval's end or
    a kernel's completion; steps are memoized per (active kernels, f).
    """
    socket = policy.books_to_socket
    if not socket and len(lanes) != 1:
        raise ValueError("a kernel-booked policy drives exactly one lane")
    done_at = 1.0 - 1e-12 if socket else 1.0
    queues = [units for _, units in lanes]
    indices = [0] * len(queues)
    progress = [0.0] * len(queues)
    kernel_time = [0.0] * len(queues)
    kernel_energy = [0.0] * len(queues)
    runs: List[RunResult] = []
    total_time = total_energy = 0.0
    switches = intervals = 0
    warnings: List[str] = []
    total_kernels = sum(len(queue) for queue in queues)
    freq = start_ghz
    interval_left = interval_s
    weighted = elapsed = 0.0  # the interval's time-weighted feedback
    step: Optional[Step] = None

    def write(target: Optional[float], lane: int) -> None:
        nonlocal freq, switches, total_time, total_energy
        if target is None:
            return
        if policy.pays_for_moves and (
            freq is not None or policy.pays_for_first_write
        ):
            switches += 1
            cost_s, cost_j = driver_write(platform, target)
            if socket:
                total_time += cost_s
                total_energy += cost_j
            else:
                kernel_time[lane] += cost_s
                kernel_energy[lane] += cost_j
        freq = target

    def finish(lane: int) -> None:
        nonlocal total_time, total_energy
        name, queue = lanes[lane]
        unit = queue[indices[lane]]
        policy.kernel_done(unit)
        runs.append(RunResult(
            unit.workload.name if name is None
            else f"{name}:{unit.workload.name}",
            policy.base_ghz if policy.records_base_frequency else freq,
            kernel_time[lane],
            kernel_energy[lane],
        ))
        if not socket:
            total_time += kernel_time[lane]
            total_energy += kernel_energy[lane]
        indices[lane] += 1
        progress[lane] = kernel_time[lane] = kernel_energy[lane] = 0.0

    while not warnings:
        active = [i for i, q in enumerate(queues) if indices[i] < len(q)]
        if not active:
            break
        units = [queues[lane][indices[lane]] for lane in active]
        for pos, unit in enumerate(units):
            contended = contended_workload(
                unit.workload, 1.0 / len(active),
                platform.hierarchy.line_bytes, llc_displacement,
            )
            if contended is not unit.workload:
                units[pos] = dataclasses.replace(unit, workload=contended)
        workloads = [unit.workload for unit in units]
        combo = tuple(
            (lanes[lane][0], workload.name)
            for lane, workload in zip(active, workloads)
        )
        memo: Dict[float, Step] = {}
        write(policy.begin(combo, units, freq), active[0])
        while True:
            intervals += 1
            if intervals > max_intervals:
                warnings.append(exhaustion_warning(
                    max_intervals, "+".join(name for _, name in combo),
                    len(runs), total_kernels,
                    sum(progress[lane] for lane in active) / len(active),
                ))
                if not socket:
                    finish(active[0])  # the truncated kernel's partial run
                break
            write(policy.before_step(combo, units, freq, step), active[0])
            step = memo.get(freq)
            if step is None:
                step = memo[freq] = policy.evaluate(
                    platform, workloads, freq, prefetch
                )
            if min(step.full_times) <= 0.0:
                # zero-duration kernels complete at once; nothing advances
                for lane, full_time in zip(active, step.full_times):
                    if full_time <= 0.0:
                        finish(lane)
                break
            dt = interval_left
            for lane, full_time in zip(active, step.full_times):
                dt = min(dt, (1.0 - progress[lane]) * full_time)
            for lane, full_time, power in zip(
                active, step.full_times, step.kernel_powers
            ):
                progress[lane] += dt / full_time
                kernel_time[lane] += dt
                kernel_energy[lane] += power * dt
            if socket:
                total_time += dt
                total_energy += step.socket_power_w * dt
            if policy.feedback:
                weighted += getattr(step, policy.feedback) * dt
                elapsed += dt
            interval_left -= dt
            if interval_left <= 1e-12:
                mean = weighted / elapsed if elapsed else 0.0
                interval_left, weighted, elapsed = interval_s, 0.0, 0.0
                write(policy.interval_end(freq, step, mean), active[0])
            completed = [lane for lane in active if progress[lane] >= done_at]
            for lane in completed:
                finish(lane)
            if completed:
                if not policy.carries_interval:
                    interval_left, weighted, elapsed = interval_s, 0.0, 0.0
                break
    return SequenceResult(
        runs, total_time, total_energy, switches, warnings=warnings
    )


def reactive_step(uncore, freq: float, boundedness: float, params) -> float:
    """The UFS-style rule: up ``up_step_ghz`` past ``high_boundedness``,
    down ``down_step_ghz`` below ``low_boundedness`` (``params``)."""
    if boundedness > params.high_boundedness:
        return uncore.clamp(freq + params.up_step_ghz)
    if boundedness < params.low_boundedness:
        return uncore.clamp(freq - params.down_step_ghz)
    return freq


class ReactivePolicy(IntervalPolicy):
    """The stock driver: :func:`reactive_step` on the interval-mean
    boundedness.  Its moves are the hardware's own (free, not cap
    switches), and its sampling interval spans kernel boundaries."""

    pays_for_moves = False
    feedback = "memory_boundedness"

    def interval_end(self, freq, step, mean):
        return reactive_step(self.platform.uncore, freq, mean, self.config)


def run_governed_sequence(
    platform: PlatformSpec,
    workloads: Sequence[KernelWorkload],
    config: GovernorConfig = GovernorConfig(),
    prefetch: bool = True,
    start_freq_ghz: Optional[float] = None,
) -> SequenceResult:
    """Run kernels back to back under the reactive driver.

    The driver's frequency state persists across kernels, like the real
    sysfs driver does across process phases.
    """
    return run_intervals(
        platform,
        [(None, [TenantKernel(workload) for workload in workloads])],
        ReactivePolicy(platform, config),
        config.interval_s,
        config.max_intervals,
        prefetch,
        start_ghz=platform.uncore.clamp(
            start_freq_ghz
            if start_freq_ghz is not None
            else config.start_fraction * platform.uncore.f_max_ghz
        ),
    )


def run_capped_sequence(
    platform: PlatformSpec,
    items: Sequence[Tuple[KernelWorkload, Optional[float]]],
    prefetch: bool = True,
    noisy: bool = True,
) -> SequenceResult:
    """Run kernels with embedded static caps (None = platform maximum).

    Each kernel is one (optionally noisy) fixed-frequency execution; a cap
    *change* costs one :func:`driver_write`.
    """
    runs: List[RunResult] = []
    total_time = 0.0
    total_energy = 0.0
    switches = 0
    current: Optional[float] = None
    for workload, cap in items:
        target = platform.uncore.clamp(
            cap if cap is not None else platform.uncore.f_max_ghz
        )
        if current is None or abs(target - current) > 1e-9:
            switches += 1
            cost_s, cost_j = driver_write(platform, target)
            total_time += cost_s
            total_energy += cost_j
            current = target
        run = execute_fixed(platform, workload, current, prefetch, noisy)
        runs.append(run)
        total_time += run.time_s
        total_energy += run.energy_j
    return SequenceResult(runs, total_time, total_energy, switches)
