"""The compute path behind the service: one JobSpec -> one KernelReport.

This is the single implementation every entrypoint shares --
``repro.experiments.runner.kernel_report``, the scheduler's worker pool,
and the CLI all call :func:`execute_report`.  It runs the full PolyUFC
flow (compile, per-unit CM with the exact->approx->cap degradation
ladder under the job's deadline) and attaches the hardware-side workload
(exact cache-simulator counters), reusing the store's content-addressed
workload objects when jobs differ only in objective / epsilon / overhead
/ engine -- the simulator never sees those knobs, so the counters are
shared by construction.  The simulator reads the very trace the CM
evaluation generated (from the in-process trace memo) instead of
regenerating it.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Tuple

from repro.benchsuite import get_benchmark
from repro.cache.memo import cached_trace
from repro.cache.parametric_model import (
    FamilyFitError,
    ParametricCharacterization,
)
from repro.cache.simulator import simulate_hierarchy
from repro.cache.trace import generate_trace
from repro.hw.platform import get_platform
from repro.mlpolyufc.characterization import (
    DEGRADABLE_ERRORS,
    FAMILY_SERVED_NOTE,
)
from repro.mlpolyufc.reports import KernelReport, UnitReport
from repro.pipeline import polyufc_compile
from repro.runtime import resolve_timeout
from repro.service.spec import JobSpec

log = logging.getLogger("repro.runtime")


def _hardware_rows(
    result, plat, units
) -> Tuple[List[dict], List[Optional[str]], bool]:
    """Exact-simulator counters per unit: (rows, warnings, cacheable).

    Each unit simulates the exact trace its CM evaluation already left in
    the in-process trace memo (same module, ops and default budget, so
    the same fingerprint).  The trace is generated afresh only when the
    memo has none: the CM was itself served from a memo or the family
    artifact, ran the trace-free symbolic engine, degraded to ``approx``,
    or the memo is disabled (``REPRO_CM_MEMO=0``).

    A unit whose CM side degraded to ``timeout-cap`` is not simulated
    (the exact trace it needs is exactly what timed out) and a unit
    whose simulation fails gets zero counters plus a warning -- in both
    cases the rows are *not* cacheable, so transient conditions never
    enter the workload store.
    """
    rows: List[dict] = []
    warnings: List[Optional[str]] = []
    cacheable = True
    zero = {
        "level_accesses": [0 for _ in plat.hierarchy.levels],
        "dram_fetch_bytes": 0,
        "dram_writeback_bytes": 0,
        "dram_lines": 0,
    }
    for unit in units:
        warning = None
        sim = None
        if unit.degraded == "timeout-cap":
            cacheable = False
        else:
            try:
                trace = cached_trace(result.tiled_module, unit.ops)
                if trace is None:
                    trace = generate_trace(result.tiled_module, unit.ops)
                sim = simulate_hierarchy(trace, plat.hierarchy)
            except DEGRADABLE_ERRORS as exc:
                log.warning(
                    "hardware-side simulation of %s failed (%s); "
                    "zero hardware counters", unit.name, exc,
                )
                warning = f"hardware simulation failed: {exc}"
                cacheable = False
        if sim is not None:
            rows.append({
                "name": unit.name,
                "level_accesses": [
                    level.accesses for level in sim.levels
                ],
                "dram_fetch_bytes": sim.dram_fetch_bytes,
                "dram_writeback_bytes": sim.dram_writeback_bytes,
                "dram_lines": sim.llc.misses + sim.llc.writebacks,
            })
        else:
            rows.append({"name": unit.name, **zero})
        warnings.append(warning)
    return rows, warnings, cacheable


def _family_vector(unit, fields) -> tuple:
    """One unit's counters in the fixed family-artifact field order."""
    values = {
        "omega": unit.omega,
        "total_accesses": unit.cm.total_accesses,
        "threads": unit.cm.threads,
    }
    for index, level in enumerate(unit.cm.levels):
        values[f"level{index}_accesses"] = level.accesses
        values[f"level{index}_cold_misses"] = level.cold_misses
        values[f"level{index}_capacity_conflict_misses"] = (
            level.capacity_conflict_misses
        )
    return tuple(int(values[name]) for name in fields)


def _family_serve(artifact, sizes) -> Optional[Tuple[dict, str]]:
    """(unit -> CM result, source) instantiated from an artifact, or None."""
    if artifact is None:
        return None
    try:
        answer = artifact.evaluate(sizes)
    except ValueError:
        return None  # parameter names drifted; recompute from scratch
    if answer is None:
        return None
    table = {
        name: artifact.cm_result(vector)
        for name, vector in zip(artifact.unit_names, answer.units)
    }
    return table, answer.source


def _family_sample(spec, store, digest, artifact, sizes, result, info):
    """Fold one fully-exact result into the family artifact (and fit).

    Degraded results never reach this point (the caller gates on
    ``report.fully_exact``), so persisted family samples are always
    engine-agreed exact counters.  A contradicting sample poisons the
    artifact; the verdict is persisted so the family stops serving.
    """
    invariants = {
        "param_names": tuple(sorted(sizes)),
        "unit_names": tuple(unit.name for unit in result.units),
        "level_names": tuple(
            level.name for level in result.units[0].cm.levels
        ),
        "line_bytes": result.units[0].cm.line_bytes,
    }
    if artifact is None:
        artifact = ParametricCharacterization(
            param_names=invariants["param_names"],
            unit_names=invariants["unit_names"],
            level_names=invariants["level_names"],
            line_bytes=invariants["line_bytes"],
        )
    fields = artifact.fields
    vectors = [_family_vector(unit, fields) for unit in result.units]
    try:
        new = artifact.add_sample(sizes, vectors, invariants)
        fitted = artifact.try_fit() if new else False
    except FamilyFitError as exc:
        log.warning(
            "family sample for %s rejected (%s); poisoning artifact",
            spec.label(), exc,
        )
        store.put_family(digest, artifact)
        info["poisoned"] = str(exc)
        return
    if new:
        store.put_family(digest, artifact)
    info["sampled"] = new
    info["fitted"] = fitted


def execute_report(
    spec: JobSpec,
    store=None,
    workers: Optional[int] = None,
    cm_timeout_s: Optional[float] = None,
    family_info: Optional[dict] = None,
) -> KernelReport:
    """Run the full pipeline for one job spec.

    ``store`` (a :class:`repro.service.store.ResultStore` or ``None``)
    is consulted only for the hardware-side workload sub-results and,
    for ``engine="parametric"`` jobs, the kernel-family artifacts;
    report lookup/persistence is the caller's concern, so this function
    always produces the model side fresh (modulo the in-process CM memo
    and the family fast path below).

    For a parametric job with a store, the family artifact keyed by
    :meth:`JobSpec.family_digest` is consulted first: when it can answer
    the job's sizes (a stored exact sample or a validated chart lattice
    point) the per-unit CM counters are *instantiated* instead of
    computed -- O(1) CM work -- and each served unit carries the
    ``FAMILY_SERVED_NOTE`` cm_note.  Otherwise the job computes normally
    and, when fully exact, its counters are folded back into the
    artifact as a new sample (growing the family toward a fit).

    ``family_info``, when given, is filled with what happened
    (``eligible``/``source``/``served_units``/``sampled``/``fitted``/
    ``poisoned``) so the scheduler can emit lifecycle events.

    ``workers`` tunes the per-unit thread pool; ``cm_timeout_s``
    overrides the spec's deadline (argument > spec > env, resolved via
    :func:`repro.runtime.resolve_timeout`); neither changes any number.
    """
    spec.validate()
    if cm_timeout_s is None:
        cm_timeout_s = resolve_timeout(spec.cm_timeout_s)
    plat = get_platform(spec.platform)
    sizes = spec.effective_sizes()
    family_eligible = (
        store is not None
        and bool(sizes)
        and spec.resolved_engine() == "parametric"
    )
    if family_info is not None:
        family_info.clear()
        family_info["eligible"] = family_eligible
        if family_eligible:
            family_info["sizes"] = dict(sizes)
    family_digest = artifact = served = None
    served_source = None
    if family_eligible:
        family_digest = spec.family_digest()
        artifact = store.get_family(family_digest)
        hit = _family_serve(artifact, sizes)
        if hit is not None:
            served, served_source = hit
    result = polyufc_compile(
        get_benchmark(spec.benchmark).module(dict(spec.sizes)),
        plat,
        granularity=spec.granularity,
        objective=spec.objective,
        tile_size=spec.tile_size,
        epsilon=spec.epsilon,
        set_associative=spec.set_associative,
        cap_overhead_factor=spec.cap_overhead_factor,
        workers=workers,
        cm_engine=spec.engine,
        cm_timeout_s=cm_timeout_s,
        cm_lookup=served.get if served is not None else None,
    )
    if family_info is not None and served is not None:
        family_info["source"] = served_source
        family_info["served_units"] = sum(
            1 for unit in result.units
            if unit.cm_note == FAMILY_SERVED_NOTE
        )

    workload_key = spec.workload_digest()
    cached_rows = store.get_workload(workload_key) if store else None
    names = [unit.name for unit in result.units]
    if cached_rows is not None and [
        row["name"] for row in cached_rows
    ] != names:
        cached_rows = None  # unit boundaries drifted; recompute
    if cached_rows is not None:
        hw_rows = cached_rows
        hw_warnings: List[Optional[str]] = [None] * len(names)
    else:
        hw_rows, hw_warnings, cacheable = _hardware_rows(
            result, plat, result.units
        )
        if store is not None and cacheable:
            store.put_workload(workload_key, hw_rows)

    report = KernelReport(
        benchmark=spec.benchmark,
        platform=plat.name,
        granularity=spec.granularity,
        objective=spec.objective,
        set_associative=spec.set_associative,
        balance_fpb=result.constants.b_t_dram,
        timings_ms={
            "preprocess": result.timings.preprocess_ms,
            "pluto": result.timings.pluto_ms,
            "polyufc_cm": result.timings.polyufc_cm_ms,
            "steps_4_6": result.timings.steps_4_6_ms,
        },
    )
    for unit, decision, row, hw_warning in zip(
        result.units, result.decisions, hw_rows, hw_warnings
    ):
        warning = unit.warning
        if hw_warning:
            warning = (warning + "; " if warning else "") + hw_warning
        report.units.append(
            UnitReport(
                name=unit.name,
                omega=unit.omega,
                oi_fpb=float(unit.oi_fpb),
                boundedness=str(unit.boundedness),
                cap_ghz=decision.f_cap_ghz,
                parallel=unit.parallel,
                q_dram_model=unit.cm.q_dram_bytes,
                level_accesses_hw=tuple(row["level_accesses"]),
                dram_fetch_bytes_hw=row["dram_fetch_bytes"],
                dram_writeback_bytes_hw=row["dram_writeback_bytes"],
                dram_lines_hw=row["dram_lines"],
                model_level_bytes=tuple(unit.summary.level_bytes),
                model_dram_lines=unit.summary.dram_lines,
                cores_fraction=unit.summary.cores_fraction,
                search_iterations=decision.search.iterations,
                degraded=unit.degraded,
                warning=warning,
                cm_note=unit.cm_note,
            )
        )
    if family_eligible and served is None and report.fully_exact:
        _family_sample(
            spec, store, family_digest, artifact, sizes, result,
            family_info if family_info is not None else {},
        )
    return report
