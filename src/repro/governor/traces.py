"""Traffic traces: seeded generation, JSON round-trip, four-way replay.

A :class:`TraceSpec` is a long multi-kernel schedule: segments name
registry benchmarks, phase changes happen at ``linalg``-op boundaries
(each benchmark expands to its capping units, exactly the granularity the
compiler caps at), and ``reps`` stretches each phase to paper-scale
durations -- the execution model is linear in the counters, so repeating
a kernel back-to-back is one ``reps``-scaled workload.

Replay pushes the trace through the service cap-lookup path (warm
family/store cache hits feed static caps to the controllers) and runs the
shoot-out policies:

* ``static``  -- PolyUFC caps via ``run_capped_sequence``,
* ``reactive`` -- the stock UFS-like driver,
* ``adaptive`` -- the online hill-climb seeded from the static caps,
* ``oracle``  -- per-kernel exhaustive EDP optimum (lower bound),

plus ``joint`` on multi-tenant traces (the model-side shared-cap solve).
All replay arithmetic is deterministic -- seeded generator, noise-free
sequence runs -- so a fixed-seed trace replays bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.governor.adaptive import (
    AdaptiveConfig,
    run_adaptive_sequence,
    oracle_caps,
)
from repro.governor.tenancy import (
    AdaptiveSocketPolicy,
    IsolationMaxPolicy,
    JointModelPolicy,
    ReactiveSocketPolicy,
    Tenant,
    TenantKernel,
    TenancyConfig,
    hindsight_oracle,
    run_multitenant,
)
from repro.hw.execution import KernelWorkload
from repro.hw.governor import (
    GovernorConfig,
    SequenceResult,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.platform import get_platform
from repro.model.parametric import KernelSummary

TRACE_SCHEMA_VERSION = 1
TRACE_KINDS = ("steady", "phase_change", "multi_tenant")

#: registry picks by typical boundedness at default sizes
COMPUTE_POOL = ("gemm", "2mm", "3mm", "syrk")
BANDWIDTH_POOL = ("atax", "bicg", "mvt", "gesummv", "trisolv")


class TraceSpecError(ValueError):
    """A serialized trace does not match the schema."""


@dataclass(frozen=True)
class TraceSegment:
    """One phase: a registry benchmark repeated ``reps`` times."""

    benchmark: str
    reps: int = 1
    tenant: int = 0

    def to_json(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "reps": self.reps,
            "tenant": self.tenant,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceSegment":
        extra = set(data) - {"benchmark", "reps", "tenant"}
        if extra:
            raise TraceSpecError(f"unknown segment keys: {sorted(extra)}")
        try:
            segment = cls(
                benchmark=data["benchmark"],
                reps=int(data.get("reps", 1)),
                tenant=int(data.get("tenant", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceSpecError(f"segment field error: {exc}") from exc
        if segment.reps < 1:
            raise TraceSpecError(f"reps must be >= 1, got {segment.reps}")
        if segment.tenant < 0:
            raise TraceSpecError("tenant must be >= 0")
        return segment


@dataclass(frozen=True)
class TraceSpec:
    """A named, seeded, JSON-round-trippable traffic trace."""

    name: str
    platform: str
    kind: str
    segments: Tuple[TraceSegment, ...]
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise TraceSpecError(
                f"kind must be one of {TRACE_KINDS}, got {self.kind!r}"
            )
        if not self.segments:
            raise TraceSpecError("a trace needs at least one segment")

    @property
    def tenant_count(self) -> int:
        return max(segment.tenant for segment in self.segments) + 1

    def to_json(self) -> dict:
        return {
            "version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "platform": self.platform,
            "kind": self.kind,
            "seed": self.seed,
            "segments": [segment.to_json() for segment in self.segments],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceSpec":
        version = data.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceSpecError(
                f"trace schema v{version}, expected v{TRACE_SCHEMA_VERSION}"
            )
        extra = set(data) - {
            "version", "name", "platform", "kind", "seed", "segments",
        }
        if extra:
            raise TraceSpecError(f"unknown trace keys: {sorted(extra)}")
        try:
            return cls(
                name=data["name"],
                platform=data["platform"],
                kind=data["kind"],
                segments=tuple(
                    TraceSegment.from_json(seg) for seg in data["segments"]
                ),
                seed=int(data.get("seed", 0)),
            )
        except (KeyError, TypeError) as exc:
            raise TraceSpecError(f"trace field error: {exc}") from exc


def generate_trace(
    kind: str,
    platform: str = "rpl",
    seed: int = 0,
    length: int = 6,
    tenants: int = 2,
    reps_range: Tuple[int, int] = (400, 1200),
) -> TraceSpec:
    """Seeded trace generator; the same arguments always yield the same
    trace (``random.Random(seed)``, no global state).

    ``reps_range`` stretches each phase to paper-scale durations so the
    interval-driven controllers get room to react within a phase.
    """
    if kind not in TRACE_KINDS:
        raise TraceSpecError(f"kind must be one of {TRACE_KINDS}")
    rng = random.Random((kind, platform, seed).__repr__())
    segments: List[TraceSegment] = []
    if kind == "steady":
        benchmark = rng.choice(BANDWIDTH_POOL + COMPUTE_POOL)
        for _ in range(length):
            segments.append(TraceSegment(
                benchmark, reps=rng.randint(*reps_range)
            ))
    elif kind == "phase_change":
        for i in range(length):
            pool = COMPUTE_POOL if i % 2 == 0 else BANDWIDTH_POOL
            segments.append(TraceSegment(
                rng.choice(pool), reps=rng.randint(*reps_range)
            ))
    else:  # multi_tenant
        if not 2 <= tenants <= 4:
            raise TraceSpecError("multi_tenant traces take 2-4 tenants")
        pools = [COMPUTE_POOL + BANDWIDTH_POOL] * tenants
        for tenant in range(tenants):
            for _ in range(length):
                segments.append(TraceSegment(
                    rng.choice(pools[tenant]),
                    reps=rng.randint(*reps_range),
                    tenant=tenant,
                ))
    return TraceSpec(
        name=f"{kind}-{platform}-s{seed}",
        platform=platform,
        kind=kind,
        segments=tuple(segments),
        seed=seed,
    )


def scale_workload(workload: KernelWorkload, reps: int) -> KernelWorkload:
    """``reps`` back-to-back runs as one workload (the model is linear)."""
    if reps <= 1:
        return workload
    return dataclasses.replace(
        workload,
        flops=workload.flops * reps,
        level_accesses=tuple(a * reps for a in workload.level_accesses),
        dram_fetch_bytes=workload.dram_fetch_bytes * reps,
        dram_writeback_bytes=workload.dram_writeback_bytes * reps,
        dram_lines=workload.dram_lines * reps,
    )


#: benchmark, platform -> capping units with caps (and model summaries)
TraceResolver = Callable[[str, str], List[TenantKernel]]


def service_resolver(benchmark: str, platform: str) -> List[TenantKernel]:
    """Default resolver: the service cap-lookup path.

    Warm runs are family/store cache hits -- the same content-addressed
    report the batch scheduler and HTTP front serve.
    """
    from repro.experiments.runner import kernel_report

    plat = get_platform(platform)
    report = kernel_report(benchmark, platform)
    units: List[TenantKernel] = []
    for unit in report.units:
        summary = KernelSummary(
            name=unit.name,
            omega=unit.omega,
            q_dram_bytes=unit.q_dram_model,
            dram_lines=unit.model_dram_lines,
            level_bytes=tuple(unit.model_level_bytes),
            cores_fraction=unit.cores_fraction,
        )
        units.append(TenantKernel(
            workload=unit.workload(plat.threads),
            cap_ghz=unit.cap_ghz,
            summary=summary,
        ))
    return units


@dataclass
class TraceReplay:
    """One trace through every policy."""

    spec: TraceSpec
    results: Dict[str, SequenceResult]

    def edp_table(self) -> Dict[str, dict]:
        table: Dict[str, dict] = {}
        for policy, result in self.results.items():
            table[policy] = {
                "time_s": result.time_s,
                "energy_j": result.energy_j,
                "edp": result.edp,
                "cap_switches": result.cap_switches,
                "truncated": result.truncated,
            }
        return table

    def to_json(self) -> dict:
        """Deterministic serialization (the determinism-check artifact)."""
        return {
            "spec": self.spec.to_json(),
            "policies": {
                policy: {
                    **self.edp_table()[policy],
                    "runs": [
                        {
                            "name": run.name,
                            "f_uncore_ghz": run.f_uncore_ghz,
                            "time_s": run.time_s,
                            "energy_j": run.energy_j,
                        }
                        for run in result.runs
                    ],
                    "warnings": list(result.warnings),
                }
                for policy, result in sorted(self.results.items())
            },
        }


def _resolve_units(
    spec: TraceSpec, resolver: TraceResolver
) -> Dict[str, List[TenantKernel]]:
    resolved: Dict[str, List[TenantKernel]] = {}
    for segment in spec.segments:
        if segment.benchmark not in resolved:
            resolved[segment.benchmark] = resolver(
                segment.benchmark, spec.platform
            )
    return resolved


def _expand(
    spec: TraceSpec,
    resolved: Dict[str, List[TenantKernel]],
    by_tenant: bool,
) -> Dict[int, List[TenantKernel]]:
    """Scaled capping units per tenant queue (one queue 0 unless
    ``by_tenant``), in segment order."""
    queues: Dict[int, List[TenantKernel]] = {}
    for segment in spec.segments:
        queue = queues.setdefault(segment.tenant if by_tenant else 0, [])
        for unit in resolved[segment.benchmark]:
            queue.append(dataclasses.replace(
                unit, workload=scale_workload(unit.workload, segment.reps)
            ))
    return queues


def replay_trace(
    spec: TraceSpec,
    resolver: Optional[TraceResolver] = None,
    governor: Optional[GovernorConfig] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    tenancy: Optional[TenancyConfig] = None,
) -> TraceReplay:
    """Run the full policy shoot-out over one trace.

    Pass a custom ``resolver`` to bypass the service (tests inject
    synthetic workloads); the default is the warm service store.
    """
    resolver = resolver or service_resolver
    plat = get_platform(spec.platform)
    resolved = _resolve_units(spec, resolver)
    results: Dict[str, SequenceResult] = {}
    if spec.kind == "multi_tenant":
        from repro.pipeline import get_constants

        config = tenancy or TenancyConfig()
        tenants = [
            Tenant(name=f"t{tenant}", kernels=tuple(queue))
            for tenant, queue in sorted(_expand(spec, resolved, True).items())
        ]
        policies = {
            "static": IsolationMaxPolicy(plat),
            "joint": JointModelPolicy(plat, get_constants(plat)),
            "reactive": ReactiveSocketPolicy(plat),
            "adaptive": AdaptiveSocketPolicy(plat),
        }
        for name, policy in policies.items():
            results[name] = run_multitenant(plat, tenants, policy, config)
        results["oracle"] = hindsight_oracle(plat, tenants, config)
    else:
        items = _expand(spec, resolved, False)[0]
        capped = [(unit.workload, unit.cap_ghz) for unit in items]
        results["static"] = run_capped_sequence(plat, capped, noisy=False)
        results["reactive"] = run_governed_sequence(
            plat,
            [unit.workload for unit in items],
            governor or GovernorConfig(),
        )
        results["adaptive"] = run_adaptive_sequence(
            plat, capped, adaptive or AdaptiveConfig()
        )
        oracle = oracle_caps(plat, [unit.workload for unit in items])
        results["oracle"] = run_capped_sequence(
            plat,
            [(unit.workload, cap) for unit, cap in zip(items, oracle)],
            noisy=False,
        )
    return TraceReplay(spec=spec, results=results)
