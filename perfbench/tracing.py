"""Spans around the program's layers, recorded from outside the program.

The traced run wraps the public functions each layer is entered
through, at the namespace the call is made from -- the same function
reached from two call sites gets two span names (the CM-side trace is
``repro.cache.memo.generate_trace``, the hardware-side duplicate is
``repro.service.executor.generate_trace``).  Spans live in memory; a
span's parent is the innermost span open on the same thread.  Wrappers
only record while :attr:`Tracer.recording` is set, so set-up and output
checks outside the timed phase never show up.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import median, tail_latency


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other (or outlive the parent); only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        ]
        result.append((span.end - span.start) - union_length(clipped))
    return result


class Tracer:
    """Patches layer entry points with span-recording wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(
                name, self.clock(), float("nan"),
                stack[-1] if stack else None,
            ))
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack().pop()

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching --------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``observe(tracer, args, result)`` runs after a recorded call to
        add counts (accesses processed, hits, iterations).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            self.add(f"{name}.calls")
            if observe is not None:
                observe(self, args, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def count_calls(self, owner: object, attr: str, name: str) -> None:
        """Count ``owner.attr`` calls without a span (inner loops)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.recording:
                self.add(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] += own
        return dict(totals)


def _length(name: str, position: Optional[int]):
    """Observer adding ``len(args[position])`` (``None``: of the result)."""

    def observe(tracer, args, result):
        source = result if position is None else args[position]
        tracer.add(name, len(source))

    return observe


def _hit(name: str):
    def observe(tracer, args, result):
        tracer.add(f"{name}.hits", result is not None)

    return observe


def _iterations(tracer: Tracer, args, result) -> None:
    tracer.add("search.iterations", sum(
        decision.search.iterations for decision in result
    ))


#: span name -> [(module path, attribute, observer)] of the layer's entry
#: points; the observer (or None) adds the call's counts
SPANS = {
    "ir.lower": [
        ("repro.pipeline", "lower_torch_to_linalg", None),
        ("repro.pipeline", "lower_linalg_to_affine", None),
    ],
    "poly.tile": [("repro.pipeline", "tile_and_parallelize", None)],
    "mlpolyufc.characterize": [
        ("repro.pipeline", "characterize_units", None),
    ],
    "search": [
        ("repro.pipeline", "select_caps", _iterations),
        ("repro.pipeline", "aggregate_caps_for_overhead", None),
    ],
    "cache.trace": [(
        "repro.cache.memo", "generate_trace",
        _length("cache.trace.accesses", None),
    )],
    "cache.cm": [(
        "repro.cache.memo", "polyufc_cm", _length("cache.cm.accesses", 0),
    )],
    "cache.symbolic.cm": [
        ("repro.cache.symbolic_model", "symbolic_cm", None),
    ],
    "cache.parametric.fit": [(
        "repro.cache.parametric_model.ParametricCharacterization", "try_fit",
        None,
    )],
    "hw.trace": [("repro.service.executor", "generate_trace", None)],
    "hw.simulate": [(
        "repro.service.executor", "simulate_hierarchy",
        _length("hw.simulate.accesses", 0),
    )],
    "governor.resolve": [
        ("repro.governor.traces", "service_resolver", None),
    ],
    "hw.capped_sequence": [
        ("repro.governor.traces", "run_capped_sequence", None),
    ],
    "hw.governed_sequence": [
        ("repro.governor.traces", "run_governed_sequence", None),
    ],
    "governor.adaptive": [
        ("repro.governor.traces", "run_adaptive_sequence", None),
    ],
    "governor.multitenant": [
        ("repro.governor.traces", "run_multitenant", None),
    ],
    "governor.oracle": [
        ("repro.governor.traces", "oracle_caps", None),
        ("repro.governor.traces", "hindsight_oracle", None),
    ],
}
for _method in ("put_report", "put_workload", "put_family"):
    SPANS[f"store.{_method}"] = [
        ("repro.service.store.ResultStore", _method, None),
    ]
for _method in ("get_report", "get_workload", "get_family"):
    SPANS[f"store.{_method}"] = [
        ("repro.service.store.ResultStore", _method, _hit(f"store.{_method}")),
    ]

#: per-interval steps of the simulated controllers (counted, no span)
INTERVAL_STEPS = [
    ("repro.hw.governor", "memory_time_s"),
    ("repro.governor.adaptive", "memory_time_s"),
    ("repro.governor.tenancy", "socket_step"),
]


def _resolve(path: str) -> object:
    """``"pkg.mod"`` -> module, ``"pkg.mod.Class"`` -> class."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point in :data:`SPANS`."""
    for name, sites in SPANS.items():
        for path, attr, observe in sites:
            tracer.wrap(_resolve(path), attr, name, observe)
    for path, attr in INTERVAL_STEPS:
        tracer.count_calls(_resolve(path), attr, "governor.intervals")
    return tracer


def _ratio(hits: float, calls: float) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(tracer: Tracer, workload, run: dict, baseline: dict) -> dict:
    """Per-layer metrics of the traced half, as ``name -> (value, unit)``.

    Self times and counts are per op (the mean over the traced ops), so
    they do not depend on how many episodes fit into the run.
    """
    ops = max(1, run["attempted"])
    own = tracer.self_time_by_name()
    counts = tracer.counts + workload.counts

    def per_op(value: float) -> float:
        return value / ops

    def seconds(name: str) -> tuple:
        return per_op(own.get(name, 0.0)), "s/op"

    def count(name: str) -> tuple:
        return per_op(counts.get(name, 0)), "count/op"

    waits = workload.queue_waits
    submitted = counts.get("events.submitted", 0)
    layer_s = sum(own.values())
    metrics = {
        "cache.trace_s": seconds("cache.trace"),
        "cache.trace_accesses": count("cache.trace.accesses"),
        "cache.cm_s": seconds("cache.cm"),
        "cache.cm_calls": count("cache.cm.calls"),
        "cache.cm_accesses_per_s": (
            _ratio(counts.get("cache.cm.accesses", 0), own.get("cache.cm", 0)),
            "1/s",
        ),
        "cache.cm_fallbacks": count("cache.cm_fallbacks"),
        "hw.trace_s": seconds("hw.trace"),
        "hw.trace_calls": count("hw.trace.calls"),
        "hw.simulate_s": seconds("hw.simulate"),
        "hw.simulated_accesses": count("hw.simulate.accesses"),
        "hw.simulated_accesses_per_s": (
            _ratio(
                counts.get("hw.simulate.accesses", 0),
                own.get("hw.simulate", 0),
            ),
            "1/s",
        ),
        "memo.cm_hit_ratio": (_ratio(
            counts.get("memo.cm.hits", 0),
            counts.get("memo.cm.hits", 0) + counts.get("memo.cm.misses", 0),
        ), "ratio"),
        "memo.trace_hit_ratio": (_ratio(
            counts.get("memo.trace.hits", 0),
            counts.get("memo.trace.hits", 0)
            + counts.get("memo.trace.misses", 0),
        ), "ratio"),
        "cache.parametric.fit_s": seconds("cache.parametric.fit"),
        "cache.parametric.served_units": count(
            "cache.parametric.served_units"
        ),
        "cache.symbolic.cm_s": seconds("cache.symbolic.cm"),
        "service.queue_wait_p50_s": (median(waits) if waits else 0.0, "s"),
        "service.queue_wait_tail_s": (
            tail_latency(waits)["value"] if waits else 0.0, "s",
        ),
        "service.coalesced_ratio": (
            _ratio(counts.get("events.coalesced", 0), submitted), "ratio",
        ),
        "service.jobs_started": count("events.started"),
        "governor.resolve_s": seconds("governor.resolve"),
        "hw.governed_sequence_s": seconds("hw.governed_sequence"),
        "hw.capped_sequence_s": seconds("hw.capped_sequence"),
        "governor.adaptive_s": seconds("governor.adaptive"),
        "governor.multitenant_s": seconds("governor.multitenant"),
        "governor.oracle_s": seconds("governor.oracle"),
        "governor.intervals": count("governor.intervals"),
        "governor.cap_switches": count("governor.cap_switches"),
        "ir.lower_s": seconds("ir.lower"),
        "poly.tile_s": seconds("poly.tile"),
        "mlpolyufc.characterize_s": seconds("mlpolyufc.characterize"),
        "search.s": seconds("search"),
        "search.iterations": count("search.iterations"),
        "trace.untraced_ops_per_s": (baseline["ops_per_s"], "1/s"),
        "trace.traced_ops_per_s": (run["ops_per_s"], "1/s"),
        "trace.overhead": (
            1.0 - run["ops_per_s"] / baseline["ops_per_s"], "ratio",
        ),
        "trace.untraced_share": (1.0 - layer_s / run["wall_s"], "ratio"),
    }
    for method in ("get_report", "put_report", "get_workload",
                   "put_workload", "get_family"):
        metrics[f"store.{method}_s"] = seconds(f"store.{method}")
    for kind in ("report", "workload", "family"):
        name = f"store.get_{kind}"
        metrics[f"store.{kind}_hit_ratio"] = (_ratio(
            counts.get(f"{name}.hits", 0), counts.get(f"{name}.calls", 0),
        ), "ratio")
    return metrics
