"""Memoized trace generation and PolyUFC-CM evaluation.

Benchmark sweeps and the Fig. 6/7/8 experiment harnesses characterize the
same units over and over (same ops, same problem sizes, same hierarchy).
This module gives those call sites content-addressed reuse:

* :func:`unit_fingerprint` -- a stable digest of everything the trace+CM
  result depends on: the printed IR of the traced ops (which covers buffer
  shapes, dtypes and module params), the cache hierarchy geometry, the
  thread count, the parallel flag, the engine, and the trace budget.
* :func:`memoized_trace` -- in-process LRU over :func:`generate_trace`;
  :func:`cached_trace` looks a stored trace up without generating.
* :func:`memoized_cm` -- in-process LRU over the full trace+CM evaluation,
  plus an optional on-disk layer (JSON per fingerprint) so results survive
  across processes; point it at a directory via ``memo_dir=`` or
  ``$REPRO_CM_MEMO_DIR``.

Set ``REPRO_CM_MEMO=0`` to disable all reuse (every call recomputes);
``REPRO_CM_MEMO_SIZE`` resizes the in-process LRUs (default 64 entries).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import threading

from repro.cache.config import CacheHierarchy
from repro.cache.static_model import (
    CacheModelResult,
    LevelModelStats,
    polyufc_cm,
    resolve_engine,
)
from repro.cache.trace import AccessTrace, generate_trace
from repro.ir.core import Module, Op
from repro.ir.printer import print_module
from repro.runtime import (
    CacheCorruption,
    Deadline,
    EngineFailure,
    TransientIOError,
    atomic_write_json,
    quarantine_file,
    read_checked_json,
)

log = logging.getLogger("repro.runtime")

#: Bump to invalidate every persisted fingerprint after model changes.
#: v2: disk entries moved to the checksummed ``repro-envelope`` format.
#: v3: the ``symbolic`` engine joined the dispatch and entries may carry
#: a structured fallback note.
#: v4: the symbolic extractor unrolls triangular/trapezoidal nests
#: (different counters for units that previously fell back to ``fast``)
#: and the ``parametric`` engine joined the dispatch.
MEMO_VERSION = 4

_MEMO_ENV = "REPRO_CM_MEMO"
_MEMO_DIR_ENV = "REPRO_CM_MEMO_DIR"
_MEMO_SIZE_ENV = "REPRO_CM_MEMO_SIZE"


def memo_enabled() -> bool:
    return os.environ.get(_MEMO_ENV, "") != "0"


def _memo_capacity() -> int:
    try:
        return max(1, int(os.environ.get(_MEMO_SIZE_ENV, "64")))
    except ValueError:
        return 64


class _LRU:
    """A small thread-safe LRU map."""

    def __init__(self, capacity_fn: Callable[[], int] = _memo_capacity):
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._capacity_fn = capacity_fn
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            capacity = self._capacity_fn()
            while len(self._data) > capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


_trace_lru = _LRU()
_cm_lru = _LRU()


def clear_memo() -> None:
    """Drop every in-process memoized trace and CM result."""
    _trace_lru.clear()
    _cm_lru.clear()


def _ops_blob(module: Module, ops: Optional[Sequence[Op]]) -> str:
    """The content the trace depends on: printed IR + traced op indices.

    The printed module covers buffer shapes/dtypes, module params, loop
    bounds, subscripts and write flags; the op indices pin *which*
    top-level nests are traced.
    """
    text = print_module(module)
    if ops is None:
        indices = "all"
    else:
        position = {id(op): i for i, op in enumerate(module.ops)}
        indices = ",".join(str(position.get(id(op), -1)) for op in ops)
    return f"{text}\n#ops={indices}"


def _hierarchy_key(hierarchy: CacheHierarchy) -> Tuple:
    return tuple(
        (lvl.name, lvl.size_bytes, lvl.line_bytes, lvl.associativity)
        for lvl in hierarchy.levels
    )


def trace_fingerprint(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
) -> str:
    blob = json.dumps(
        [MEMO_VERSION, _ops_blob(module, ops), max_accesses], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def unit_fingerprint(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    max_accesses: int = 60_000_000,
) -> str:
    """Content digest of a full (ops, params, hierarchy, threads, parallel)
    characterization request."""
    engine_name = resolve_engine(engine)
    if engine_name == "parametric":
        # Same evaluation, same numbers: share the symbolic memo slot.
        engine_name = "symbolic"
    blob = json.dumps(
        [
            MEMO_VERSION,
            _ops_blob(module, ops),
            _hierarchy_key(hierarchy),
            threads,
            parallel,
            engine_name,
            max_accesses,
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def memoized_trace(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
    deadline: Optional[Deadline] = None,
) -> AccessTrace:
    """``generate_trace`` behind the in-process LRU.

    A ``deadline`` is only consulted by the generation itself -- an
    interrupted generation raises before anything is cached, so the memo
    never stores partial traces.
    """
    if not memo_enabled():
        return generate_trace(
            module, ops, max_accesses=max_accesses, deadline=deadline
        )
    key = trace_fingerprint(module, ops, max_accesses)
    cached = _trace_lru.get(key)
    if cached is not None:
        return cached
    trace = generate_trace(
        module, ops, max_accesses=max_accesses, deadline=deadline
    )
    _trace_lru.put(key, trace)
    return trace


def cached_trace(
    module: Module,
    ops: Optional[Sequence[Op]] = None,
    max_accesses: int = 60_000_000,
) -> Optional[AccessTrace]:
    """The trace :func:`memoized_trace` stored for these arguments, if any.

    A pure lookup that never generates: ``None`` on a miss and whenever
    the memo is disabled.  Lets a later consumer of the same unit (the
    service's hardware simulation) reuse the trace the CM already built.
    """
    if not memo_enabled():
        return None
    return _trace_lru.get(trace_fingerprint(module, ops, max_accesses))


def _cm_to_payload(cm: CacheModelResult) -> dict:
    return {
        "line_bytes": cm.line_bytes,
        "total_accesses": cm.total_accesses,
        "threads": cm.threads,
        "levels": [
            {
                "name": lvl.name,
                "accesses": lvl.accesses,
                "cold_misses": lvl.cold_misses,
                "capacity_conflict_misses": lvl.capacity_conflict_misses,
            }
            for lvl in cm.levels
        ],
    }


def _cm_from_payload(payload: dict) -> CacheModelResult:
    levels = tuple(
        LevelModelStats(
            name=lvl["name"],
            accesses=lvl["accesses"],
            cold_misses=lvl["cold_misses"],
            capacity_conflict_misses=lvl["capacity_conflict_misses"],
        )
        for lvl in payload["levels"]
    )
    return CacheModelResult(
        levels,
        payload["line_bytes"],
        payload["total_accesses"],
        payload["threads"],
    )


def _resolve_memo_dir(memo_dir) -> Optional[Path]:
    if memo_dir is None:
        memo_dir = os.environ.get(_MEMO_DIR_ENV) or None
    return Path(memo_dir) if memo_dir is not None else None


_PAYLOAD_KEYS = ("line_bytes", "total_accesses", "threads", "levels")


def _read_disk_entry(path: Path):
    """One hardened disk-memo read: validated, quarantined on corruption.

    Returns ``(cm, note)`` or ``None``; ``note`` is the optional
    structured symbolic-fallback annotation stored alongside the counters.
    """
    try:
        payload = read_checked_json(
            path, fault_site="memo.read", required_keys=_PAYLOAD_KEYS
        )
        note = payload.get("note")
        if note is not None and not isinstance(note, str):
            raise TypeError(f"note must be a string, got {type(note).__name__}")
        return _cm_from_payload(payload), note
    except FileNotFoundError:
        return None
    except CacheCorruption:
        return None  # already quarantined + logged by the reader
    except (TransientIOError, EngineFailure) as exc:
        log.warning("memo read of %s kept failing (%s); recomputing", path, exc)
        return None
    except (ValueError, KeyError, TypeError) as exc:
        # Checksum passed but the payload shape drifted: quarantine too.
        log.warning("memo entry %s has drifted schema (%s)", path, exc)
        quarantine_file(path)
        return None


def _compute_cm(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int,
    parallel: bool,
    engine_name: str,
    max_accesses: int,
    deadline: Optional[Deadline],
) -> Tuple[CacheModelResult, Optional[str]]:
    """The uncached evaluation: symbolic first when asked, trace otherwise.

    Returns ``(cm, note)``: ``note`` is ``None`` except when the symbolic
    engine declared the unit outside its quasi-affine class and the
    evaluation fell back to the trace-based ``fast`` engine.
    """
    note: Optional[str] = None
    if engine_name == "parametric":
        # At the cache layer ``parametric`` is the symbolic evaluation
        # (identical numbers by construction); the family-artifact reuse
        # it enables lives in the service layer.
        engine_name = "symbolic"
    if engine_name == "symbolic":
        # Imported lazily: symbolic_model depends on this module's
        # siblings and the isllite counting stack.
        from repro.cache.symbolic_model import (
            SymbolicUnsupported,
            symbolic_cm,
        )

        try:
            return (
                symbolic_cm(
                    module, ops, hierarchy, threads=threads,
                    parallel=parallel, deadline=deadline,
                ),
                None,
            )
        except SymbolicUnsupported as exc:
            note = f"symbolic engine fell back to fast: {exc}"
            log.info(
                "symbolic CM of %s unsupported (%s); using the fast "
                "trace engine", module.name, exc,
            )
            engine_name = "fast"
    trace = memoized_trace(
        module, ops, max_accesses=max_accesses, deadline=deadline
    )
    cm = polyufc_cm(
        trace, hierarchy, threads=threads, parallel=parallel,
        engine=engine_name, deadline=deadline,
    )
    return cm, note


def memoized_cm_with_note(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    max_accesses: int = 60_000_000,
    memo_dir=None,
    deadline: Optional[Deadline] = None,
) -> Tuple[CacheModelResult, Optional[str]]:
    """The trace+CM evaluation of one unit, memoized, with its note.

    Layering: in-process LRU, then the on-disk JSON store (when a
    directory is configured), then the real computation -- whose trace
    goes through :func:`memoized_trace` so an immediately following
    different-hierarchy request reuses it.  Disk entries are atomic,
    checksummed and quarantined-on-corruption (``repro.runtime.io``);
    a ``deadline`` interrupts the underlying computation at chunk
    boundaries and nothing partial is ever cached.

    The second element is the structured symbolic-fallback note
    (``None`` unless ``engine="symbolic"`` had to fall back), preserved
    through both memo layers.
    """
    engine_name = resolve_engine(engine)
    if not memo_enabled():
        return _compute_cm(
            module, ops, hierarchy, threads, parallel, engine_name,
            max_accesses, deadline,
        )
    key = unit_fingerprint(
        module, ops, hierarchy, threads, parallel, engine, max_accesses
    )
    cached = _cm_lru.get(key)
    if cached is not None:
        return cached
    directory = _resolve_memo_dir(memo_dir)
    path = directory / f"cm_{key}.json" if directory else None
    if path is not None and path.exists():
        entry = _read_disk_entry(path)
        if entry is not None:
            _cm_lru.put(key, entry)
            return entry
    cm, note = _compute_cm(
        module, ops, hierarchy, threads, parallel, engine_name,
        max_accesses, deadline,
    )
    _cm_lru.put(key, (cm, note))
    if path is not None:
        payload = _cm_to_payload(cm)
        if note is not None:
            payload["note"] = note
        try:
            atomic_write_json(path, payload, fault_site="memo.write")
        except (TransientIOError, EngineFailure) as exc:
            # Losing a memo entry costs a recompute later, never a crash.
            log.warning("memo write of %s failed (%s); continuing", path, exc)
    return cm, note


def memoized_cm(
    module: Module,
    ops: Optional[Sequence[Op]],
    hierarchy: CacheHierarchy,
    threads: int = 1,
    parallel: bool = False,
    engine: Optional[str] = None,
    max_accesses: int = 60_000_000,
    memo_dir=None,
    deadline: Optional[Deadline] = None,
) -> CacheModelResult:
    """:func:`memoized_cm_with_note` without the note (compat shim)."""
    cm, _note = memoized_cm_with_note(
        module, ops, hierarchy, threads=threads, parallel=parallel,
        engine=engine, max_accesses=max_accesses, memo_dir=memo_dir,
        deadline=deadline,
    )
    return cm
