"""The four workloads: what each sends, how an episode runs, what is checked.

Every workload runs in *episodes*: a fixed mix of requests whose order
and variant choices come from ``(workload, seed, episode)``, sent by one
closed-loop client.  Resetting state between episodes (a fresh store
copy, an empty CM memo, a fresh client "as after a restart") is not
timed.  A run keeps the whole episodes whose timed wall comes nearest
``--seconds``, so every run measures the same mix and runs differ only
in order and variant draws.

The median op lies in the middle of one request's samples, or among
requests of like cost, rather than on the boundary between two costs
(cold_registry: four of six kernels within 1 %; family_sweep: 7 sizes;
governor_replay: 5 traces of like cost; variant_revisit: its median op
is a store hit).

Pools are finite, so ``golden.json`` covers every seed:

``cold_registry``
    seven PolyBench/ML kernels of like cold cost at default sizes, each
    requested once per episode from a fresh service with an empty store
    and memo.
``variant_revisit``
    a store prefilled with the governor pool's default reports; per
    restart, exact repeats, two objective/epsilon variants each of atax
    and trisolv, and a first request for sdpa_gemma2 (absent from the
    prefill).
``family_sweep``
    ``engine="parametric"`` over a gemm ``ni`` family: the cold sizes
    (which include the hull ends) first, then the interior sizes the
    fitted chart must serve.
``governor_replay``
    every pooled ``steady``, ``phase_change`` and ``multi_tenant`` trace,
    in seeded order, replayed through every policy with caps resolved
    from the prefilled store.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    Episode,
    HostClock,
    cached_build,
    closed_loop,
    ledger,
    reap_children,
)

# numpy.random is imported lazily by the program; importing it here
# keeps every freshly forked pool worker from paying for it again.
import numpy.random  # noqa: F401
from repro.cache import memo
from repro.governor import AdaptiveConfig, generate_trace, replay_trace
from repro.governor import run_adaptive_sequence
from repro.governor.traces import BANDWIDTH_POOL, COMPUTE_POOL
from repro.hw.execution import execute_fixed
from repro.hw.governor import (
    GovernorConfig,
    run_capped_sequence,
    run_governed_sequence,
)
from repro.hw.platform import get_platform
from repro.mlpolyufc.characterization import FAMILY_SERVED_NOTE
from repro.pipeline import get_constants
from repro.roofline.microbench import calibrate_platform
from repro.service import JobSpec, ListSink, ServiceClient, execute_report

PLATFORM = "rpl"

#: seconds a single request may take before it counts as failed
OP_TIMEOUT_S = 150.0

#: Default-size kernels from four registry categories whose cold compile
#: through the service takes 0.8-1.1 s on a 2-CPU x86 host, four of them
#: within 1 % of 0.95 s: the median lands among like samples, and a run
#: holds enough of them.  (Datamining, medley and stencils have no
#: kernel that close: covariance, deriche and jacobi-1d take 6, 1.3 and
#: 0.6 s.)
COLD_SET = (
    "gesummv",          # linear-algebra/blas
    "bicg",             # linear-algebra/kernels
    "atax",             # linear-algebra/kernels
    "trisolv",          # linear-algebra/solvers
    "durbin",           # linear-algebra/solvers
    "conv2d_convnext",  # ML
)

#: the governor traces' kernel pools; includes gemm, 2mm and 3mm
PREFILL = tuple(COMPUTE_POOL) + tuple(BANDWIDTH_POOL)
#: The recomputing requests of one restart: two objective/epsilon
#: variants each of two prefilled kernels (the first recomputes CM, the
#: second hits the memo) and one kernel absent from the prefill.  They
#: cost about the same, so across a run's 30-40 restarts the tail (10
#: samples beyond it) lands inside one large group of like requests
#: instead of on a handful of samples of one kernel.
VARIANT_KERNELS = ("atax", "trisolv")
ABSENT = ("sdpa_gemma2",)
VARIANTS = tuple(
    (objective, epsilon)
    for objective in ("edp", "energy", "performance")
    for epsilon in (1e-4, 1e-3, 1e-2)
    if (objective, epsilon) != ("edp", 1e-3)
)
VARIANTS_PER_KERNEL = 2
#: repeats beyond one per prefilled kernel: store hits are then most of
#: the ops, so the median op is a store hit
EXTRA_REPEATS = 11

FAMILY_BENCHMARK = "gemm"
FAMILY_FIXED = {"nj": 16, "nk": 16}
FAMILY_COLD = (16, 24, 32, 64)
FAMILY_WARM = (40, 48, 56)

#: (kind, trace seed) -> length (segments; per tenant for multi_tenant)
#: of every trace an episode replays.  The lengths give every replay a
#: like cost, about 0.5 s on a 2-CPU x86 host, the cost of the one
#: multi-tenant replay: the median and the tail then fall inside one
#: mix of like samples, not on the gap between a cheap and a costly
#: trace, however many episodes a run holds.
TRACES = {
    ("steady", 0): 96,
    ("steady", 2): 66,
    ("phase_change", 0): 136,
    ("phase_change", 1): 120,
    ("multi_tenant", 0): 1,
}

#: simulated run length of one kernel's EDP comparison (the Fig. 7 default)
EDP_RUNTIME_S = 5e-3


def default_spec(benchmark: str, **fields) -> JobSpec:
    return JobSpec(benchmark=benchmark, platform=PLATFORM, **fields)


def family_spec(ni: int, engine: Optional[str] = "parametric") -> JobSpec:
    return JobSpec(
        benchmark=FAMILY_BENCHMARK, platform=PLATFORM, engine=engine,
        sizes={"ni": ni, **FAMILY_FIXED},
    )


def all_report_specs() -> List[JobSpec]:
    """Every report request any seed can generate (engine left default)."""
    specs = [default_spec(name) for name in COLD_SET + PREFILL + ABSENT]
    specs += [
        default_spec(name, objective=objective, epsilon=epsilon)
        for name in VARIANT_KERNELS
        for objective, epsilon in VARIANTS
    ]
    specs += [
        family_spec(ni, engine=None) for ni in FAMILY_COLD + FAMILY_WARM
    ]
    unique = {}
    for spec in specs:
        unique.setdefault(spec.digest(), spec)
    return list(unique.values())


def all_traces():
    return [
        generate_trace(kind, PLATFORM, seed, length=length)
        for (kind, seed), length in TRACES.items()
    ]


def trace_pool() -> dict:
    """(kind, trace seed) -> trace, for every pooled governor trace."""
    return {(trace.kind, trace.seed): trace for trace in all_traces()}


def prefill_snapshot() -> Path:
    """A store holding the default reports of :data:`PREFILL` (built once)."""

    def build(staging: Path) -> None:
        with ServiceClient(
            store=staging / "store", workers=os.cpu_count() or 1,
        ) as client:
            reports = client.characterize_batch(
                [default_spec(name) for name in PREFILL]
            )
        if not all(report.fully_exact for report in reports):
            raise RuntimeError("prefill reports must be exact")

    return cached_build("prefill", list(PREFILL), build) / "store"


def prefill_store(root: Optional[Path] = None) -> Path:
    """Copy the prefill snapshot to ``root`` (default: the run's store)."""
    if root is None:
        root = Path(os.environ["REPRO_CACHE_DIR"]) / "store"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(prefill_snapshot(), root)
    return root


def calibrate() -> None:
    """The roofline calibration every compile starts from."""
    platform = get_platform(PLATFORM)
    calibrate_platform(platform)
    get_constants(platform)  # warm the pipeline's cached copy


def edp_ratios(report) -> tuple:
    """(static / reactive, adaptive / reactive) simulated EDP of one kernel.

    As in ``repro.experiments.runner.baseline_comparison`` (Fig. 7), the
    kernel repeats back to back until the run lasts about
    :data:`EDP_RUNTIME_S` at the maximum uncore frequency, so the
    driver-write overhead of a cap is charged at paper time scales.
    Noise-free, hence deterministic.
    """
    platform = get_platform(PLATFORM)
    workloads = [unit.workload(platform.threads) for unit in report.units]
    once = sum(
        execute_fixed(
            platform, workload, platform.uncore.f_max_ghz, noisy=False
        ).time_s
        for workload in workloads
    )
    reps = max(1, min(5000, int(round(EDP_RUNTIME_S / max(once, 1e-9)))))
    capped = list(zip(
        workloads, [unit.cap_ghz for unit in report.units]
    )) * reps
    reactive = run_governed_sequence(
        platform, workloads * reps, GovernorConfig()
    )
    static = run_capped_sequence(platform, capped, noisy=False)
    adaptive = run_adaptive_sequence(platform, capped, AdaptiveConfig())
    return static.edp / reactive.edp, adaptive.edp / reactive.edp


class Workload:
    """One workload of one run: set-up, episodes, and the checks."""

    name = ""
    #: the host clock's reference weights (see ``harness.HostClock``)
    reference_mix = {"interp": 1.0}

    def __init__(self, seed: int, golden, tracer=None):
        self.seed = seed
        self.golden = golden
        self.tracer = tracer
        #: request -> (static, adaptive) EDP ratios vs reactive
        self.ratios: Dict[object, tuple] = {}
        self.counts: Counter = Counter()
        self.queue_waits: List[float] = []
        self.service: dict = {}
        #: event counts of the last service session
        self.events: Counter = Counter()
        self._clock: Optional[HostClock] = None

    @property
    def clock(self) -> HostClock:
        """The host clock of the timed phase, started on first use."""
        if self._clock is None:
            self._clock = HostClock(self.reference_mix)
        return self._clock

    def rng(self, episode: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{episode}")

    @contextmanager
    def recording(self):
        if self.tracer is None:
            yield
            return
        self.tracer.recording = True
        try:
            yield
        finally:
            self.tracer.recording = False

    def setup(self) -> None:
        calibrate()

    def plan(self, episode: int) -> list:
        """The request phases of one episode (a barrier between phases)."""
        raise NotImplementedError

    def episode(self, index: int) -> Episode:
        raise NotImplementedError


class ServiceWorkload(Workload):
    """Episodes of closed-loop requests against a fresh service client."""

    prefilled = False
    #: compiles spend about half their time in NumPy passes over large
    #: trace arrays and in starting the pool's worker process
    reference_mix = {"interp": 0.5, "memory": 0.5}

    def fresh_store(self) -> Path:
        root = Path(tempfile.mkdtemp(
            prefix=f"{self.name}-", dir=os.environ["REPRO_CACHE_DIR"],
        )) / "store"
        if self.prefilled:
            prefill_store(root)
        return root

    def setup(self) -> None:
        calibrate()
        if self.prefilled:
            shutil.rmtree(self.fresh_store().parent)

    def extra_check(self, spec: JobSpec, report) -> bool:
        return True

    def sessions(self, episode: int) -> list:
        """The client sessions of one episode, each a list of phases.

        Every session starts from a fresh store, an empty CM memo and a
        fresh client; a barrier separates its phases.
        """
        return [self.plan(episode)]

    def episode(self, index: int) -> Episode:
        ops, wall, nominal, failed, notes = [], 0.0, 0.0, 0, []
        for phases in self.sessions(index):
            session_ops, session_wall = self.session(phases)
            nominal += self.clock.stretch(session_ops, session_wall)
            session_failed = sum(not self.check(op) for op in session_ops)
            balance = ledger(self.events)
            if not balance["balanced"]:
                notes.append(f"ledger imbalance {balance}")
                session_failed = min(len(session_ops), session_failed + max(
                    1, abs(balance["submitted"] - balance["terminal"])
                ))
            ops += session_ops
            wall += session_wall
            failed += session_failed
        return Episode(ops, wall, failed, notes, nominal)

    def session(self, phases: list) -> tuple:
        """Run ``phases`` against a fresh service: (ops, timed wall)."""
        store = self.fresh_store()
        memo.clear_memo()
        sink = ListSink(maxlen=100_000)
        client = ServiceClient(store=store, sink=sink)
        self.service = {
            "executor": client.scheduler.executor,
            "workers": client.scheduler.width,
            "clients": 1,
        }

        def send(spec, op):
            job = client.submit(spec)
            op.job_id = job.job_id
            report = job.result(OP_TIMEOUT_S)
            op.shed = job.shed
            return report

        ops = []
        try:
            with self.recording():
                started = time.perf_counter()
                for phase in phases:
                    ops += closed_loop(phase, send)
                wall = time.perf_counter() - started
        finally:
            client.close()
            reap_children()
            shutil.rmtree(store.parent, ignore_errors=True)
        self.counts["memo.cm.hits"] += memo._cm_lru.hits
        self.counts["memo.cm.misses"] += memo._cm_lru.misses
        self.counts["memo.trace.hits"] += memo._trace_lru.hits
        self.counts["memo.trace.misses"] += memo._trace_lru.misses
        self.events = sink.counts()
        self.counts.update(
            {f"events.{kind}": count for kind, count in self.events.items()}
        )
        queued = {e.job_id: e.ts for e in sink.events("queued")}
        self.queue_waits += [
            e.ts - queued[e.job_id]
            for e in sink.events("started") if e.job_id in queued
        ]
        return ops, wall

    def check(self, op) -> bool:
        report = op.result
        if op.error is not None or op.shed or report is None:
            return False
        for unit in report.units:
            if unit.cm_note == FAMILY_SERVED_NOTE:
                self.counts["cache.parametric.served_units"] += 1
            elif unit.cm_note and "fell back" in unit.cm_note:
                self.counts["cache.cm_fallbacks"] += 1
        if not report.fully_exact:
            return False
        if not self.golden.check_report(op.request, report):
            return False
        if not self.extra_check(op.request, report):
            return False
        if is_default(op.request) and op.request not in self.ratios:
            self.ratios[op.request] = edp_ratios(report)
        return True


def is_default(spec: JobSpec) -> bool:
    """Default objective and epsilon: the requests the EDP gain covers."""
    return spec.objective == "edp" and spec.epsilon == JobSpec.epsilon


class ColdRegistry(ServiceWorkload):
    """Each kernel is compiled by a fresh service, as a one-shot compile.

    The store and memo then start empty for every request, and no
    worker holds another kernel's traces: neither latency nor peak
    memory depends on the order the seed draws.
    """

    name = "cold_registry"

    def plan(self, episode: int) -> list:
        names = list(COLD_SET)
        self.rng(episode).shuffle(names)
        return [[default_spec(name) for name in names]]

    def sessions(self, episode: int) -> list:
        (requests,) = self.plan(episode)
        return [[[spec]] for spec in requests]


class VariantRevisit(ServiceWorkload):
    """Ten restarts per episode, about 6 s on a 2-CPU x86 host.

    The tail is the 11th-slowest op, the upper third of the costliest
    recomputing request's 30-40 samples; a run one episode longer or
    shorter moves it only within that group.
    """

    name = "variant_revisit"
    prefilled = True
    SESSIONS = 10

    def sessions(self, episode: int) -> list:
        return [
            self.plan(episode * self.SESSIONS + session)
            for session in range(self.SESSIONS)
        ]

    def plan(self, episode: int) -> list:
        """Repeats land at seeded positions around the recomputing requests.

        The recomputing requests keep one order (each kernel's variants,
        then the absent kernels): which of them runs after which decides
        how many traces the worker's memo holds at its peak, and that
        should not change with the seed.
        """
        rng = self.rng(episode)
        repeats = [default_spec(name) for name in PREFILL]
        repeats += [
            default_spec(rng.choice(PREFILL)) for _ in range(EXTRA_REPEATS)
        ]
        rng.shuffle(repeats)
        computed = [
            default_spec(name, objective=objective, epsilon=epsilon)
            for name in VARIANT_KERNELS
            for objective, epsilon in rng.sample(
                VARIANTS, VARIANTS_PER_KERNEL
            )
        ]
        computed += [default_spec(name) for name in ABSENT]
        total = len(repeats) + len(computed)
        slots = set(rng.sample(range(total), len(computed)))
        computed_iter, repeats_iter = iter(computed), iter(repeats)
        return [[
            next(computed_iter if index in slots else repeats_iter)
            for index in range(total)
        ]]


class FamilySweep(ServiceWorkload):
    name = "family_sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.controls: Dict[int, str] = {}

    def plan(self, episode: int) -> list:
        """Cold sizes in ascending or descending order, then the interior.

        A monotone order keeps every cold size outside the hull of the
        samples before it, so none is chart-served and every episode
        samples all cold sizes; the seed picks the direction and the
        order of the interior sizes.
        """
        rng = self.rng(episode)
        cold = sorted(FAMILY_COLD, reverse=rng.random() < 0.5)
        warm = list(FAMILY_WARM)
        rng.shuffle(warm)
        return [
            [family_spec(ni) for ni in cold],
            [family_spec(ni) for ni in warm],
        ]

    def extra_check(self, spec: JobSpec, report) -> bool:
        """Interior sizes must be chart-served and equal a ``fast`` run."""
        from golden import report_digest

        ni = dict(spec.sizes)["ni"]
        if ni not in FAMILY_WARM:
            return True
        if any(unit.cm_note != FAMILY_SERVED_NOTE for unit in report.units):
            return False
        if ni not in self.controls:
            memo.clear_memo()
            control = execute_report(family_spec(ni, engine="fast"))
            self.controls[ni] = report_digest(control)
        return report_digest(report) == self.controls[ni]


class GovernorReplay(Workload):
    name = "governor_replay"

    def setup(self) -> None:
        calibrate()
        prefill_store()
        self.service = {"clients": 1, "executor": "in-process"}
        self.pool = trace_pool()

    def plan(self, episode: int) -> list:
        traces = list(self.pool.values())
        self.rng(episode).shuffle(traces)
        return [traces]

    def episode(self, index: int) -> Episode:
        """Each replay is its own timed stretch of the host clock."""
        (traces,) = self.plan(index)
        ops, wall, nominal = [], 0.0, 0.0
        for trace in traces:
            with self.recording():
                started = time.perf_counter()
                (op,) = closed_loop(
                    [trace], lambda trace, op: replay_trace(trace)
                )
                op_wall = time.perf_counter() - started
            ops.append(op)
            wall += op_wall
            nominal += self.clock.stretch([op], op_wall)
        failed = 0
        for op in ops:
            if op.error is not None or not self.golden.check_replay(op.result):
                failed += 1
                continue
            results = op.result.results
            self.counts["governor.cap_switches"] += sum(
                result.cap_switches for result in results.values()
            )
            reactive = results["reactive"].edp
            self.ratios[op.request] = (
                results["static"].edp / reactive,
                results["adaptive"].edp / reactive,
            )
        return Episode(ops, wall, failed, nominal_s=nominal)


WORKLOADS = {
    cls.name: cls
    for cls in (ColdRegistry, VariantRevisit, FamilySweep, GovernorReplay)
}
