"""REPRO-GOVERNOR: online adaptive capping and traffic scenarios.

The layer above the static-cap pipeline: a Cuttlefish-style online
controller seeded from the service's PolyUFC caps
(:mod:`repro.governor.adaptive`), a seeded traffic-trace engine with a
four-way policy shoot-out (:mod:`repro.governor.traces`), and a
multi-tenant contention model where 2-4 co-scheduled tenants share one
socket's LLC, DRAM pipe, and uncore frequency domain
(:mod:`repro.governor.tenancy`).  Methodology: ``docs/GOVERNOR.md``.
"""

from repro.governor.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    oracle_caps,
    run_adaptive_sequence,
)
from repro.governor.tenancy import (
    AdaptiveSocketPolicy,
    FixedFrequencyPolicy,
    IsolationMaxPolicy,
    JointModelPolicy,
    OracleSocketPolicy,
    ReactiveSocketPolicy,
    SocketPolicy,
    SocketStep,
    Tenant,
    TenantKernel,
    TenancyConfig,
    hindsight_oracle,
    run_multitenant,
    socket_step,
)
from repro.governor.traces import (
    TRACE_KINDS,
    TRACE_SCHEMA_VERSION,
    TraceReplay,
    TraceSegment,
    TraceSpec,
    TraceSpecError,
    generate_trace,
    replay_trace,
    scale_workload,
    service_resolver,
)
from repro.hw.governor import contended_workload

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "oracle_caps",
    "run_adaptive_sequence",
    "AdaptiveSocketPolicy",
    "FixedFrequencyPolicy",
    "IsolationMaxPolicy",
    "JointModelPolicy",
    "OracleSocketPolicy",
    "ReactiveSocketPolicy",
    "SocketPolicy",
    "SocketStep",
    "Tenant",
    "TenantKernel",
    "TenancyConfig",
    "contended_workload",
    "hindsight_oracle",
    "run_multitenant",
    "socket_step",
    "TRACE_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceReplay",
    "TraceSegment",
    "TraceSpec",
    "TraceSpecError",
    "generate_trace",
    "replay_trace",
    "scale_workload",
    "service_resolver",
]
