"""Trace-driven multi-level cache simulator (the "hardware").

Inclusive, set-associative, true-LRU, write-allocate + write-back.  Each
level filters the stream for the next: misses become fetches and dirty
evictions become writebacks.  DRAM traffic is LLC fetches + LLC writebacks.

This simulator provides the ground truth that the simulated platforms
expose through PAPI-like counters; PolyUFC-CM (:mod:`repro.cache.
static_model`) is the *model* being evaluated against it.

Every level is evaluated array-at-a-time.  Hits and misses come from
:func:`repro.cache.fast_model.lru_miss_mask`, the same per-set LRU
classifier PolyUFC-CM's fast engine runs (set ``line % num_sets``; a
miss exactly when the set-local reuse distance reaches the ways).  The
write-back state is then rebuilt from the miss mask:

* A *residency* is a run of accesses to one line that starts at a miss
  and lasts until the line's next miss.  Sorting the accesses by
  ``(line, time)`` lays every residency out contiguously; its dirty flag
  is the OR of its writes (``logical_or.reduceat``).  Every residency
  ends either in an eviction or resident at kernel end, so the level's
  writebacks -- dirty evictions plus the end-of-kernel flush -- are
  exactly its dirty residencies.
* A set only ever gains lines through misses and loses them through
  evictions, so its first ``assoc`` misses fill it and every later miss
  of the set evicts exactly one line.
* LRU evicts a set's residencies in order of their last access.  If a
  residency ``R`` is evicted at time ``e``, any residency ``R'`` of the
  same set whose last access is earlier began before ``e`` too; had it
  still been resident at ``e``, its most recent access would have been
  older than ``R``'s and LRU would have chosen it instead.  So ``R'``
  was evicted earlier, and the evicted residencies of a set are a prefix
  of its residencies in last-access order.
* Hence the ``k``-th evicting miss of a set (its ``assoc + k``-th miss)
  evicts the ``k``-th residency of that set in last-access order.  That
  pairing places each dirty eviction's writeback in the next-level
  stream right after the fetch of the miss that caused it, which is
  where the per-access loop emits it.  Flush writebacks are charged to
  the level's count but not replayed into the next level's stream,
  which keeps level filtering causal.

The randomized differential suite
(``tests/cache/test_simulator_differential.py``) holds this to the
per-access loop it replaced: equal counters and an identical next-level
stream at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.fast_model import _packed_sort, lru_miss_mask
from repro.cache.trace import AccessTrace


@dataclass(frozen=True)
class LevelStats:
    """Counters for one simulated cache level."""

    name: str
    accesses: int
    hits: int
    misses: int
    writebacks: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.miss_ratio if self.accesses else 0.0


@dataclass(frozen=True)
class CacheSimResult:
    """Hierarchy-wide simulation result."""

    levels: Tuple[LevelStats, ...]
    line_bytes: int
    total_accesses: int

    @property
    def llc(self) -> LevelStats:
        return self.levels[-1]

    @property
    def dram_fetch_bytes(self) -> int:
        return self.llc.misses * self.line_bytes

    @property
    def dram_writeback_bytes(self) -> int:
        return self.llc.writebacks * self.line_bytes

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic (fetches + writebacks)."""
        return self.dram_fetch_bytes + self.dram_writeback_bytes

    def level_traffic_bytes(self, index: int) -> int:
        """Bytes requested *from* level ``index`` (its access count x line)."""
        return self.levels[index].accesses * self.line_bytes

    def counters(self) -> Tuple[Tuple[str, int, int, int], ...]:
        """Per-level ``(name, accesses, misses, writebacks)`` tuples.

        The simulator-side analogue of
        :meth:`repro.cache.static_model.CacheModelResult.counters` -- a
        plain comparable struct for differential and regression checks
        (the split differs because the simulator does not distinguish
        cold from capacity/conflict misses).
        """
        return tuple(
            (level.name, level.accesses, level.misses, level.writebacks)
            for level in self.levels
        )


def _positions(values: np.ndarray, width: int, bits: int) -> np.ndarray:
    """Positions of ``values`` in stable value order, as int32 when they fit.

    A ``fast_model._packed_sort`` narrowed to the smallest index dtype:
    the positions are gathered through repeatedly below, and at paper
    sizes int32 halves both that traffic and the level's peak memory.
    """
    order = _packed_sort(values, width, bits)
    if order.dtype != np.int32 and values.size <= np.iinfo(np.int32).max:
        order = order.astype(np.int32)
    return order


def _simulate_level(
    lines: np.ndarray,
    writes: np.ndarray,
    config: CacheLevelConfig,
) -> Tuple[int, int, int, np.ndarray, np.ndarray]:
    """Simulate one write-back LRU level.

    Returns (hits, misses, writebacks, next_lines, next_writes): the filtered
    stream the next level observes (fetch reads + writeback writes).
    """
    n = lines.size
    if n == 0:
        return 0, 0, 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    missed, _cold = lru_miss_mask(lines, config)
    miss_times = np.flatnonzero(missed)
    misses = miss_times.size
    hits = n - misses
    fetches = lines[miss_times]

    # Residencies: accesses in (line, time) order, cut at every miss.
    bits = max(1, int(n - 1).bit_length())
    by_line = _positions(lines, int(lines.max()), bits)
    starts = np.flatnonzero(missed[by_line])
    dirty = np.logical_or.reduceat(writes[by_line], starts)
    writebacks = int(np.count_nonzero(dirty))
    # Each residency's last access sits right before the next one starts.
    last_time = by_line[np.append(starts[1:], n) - 1]
    del by_line
    dirty_at = np.zeros(n, dtype=bool)
    dirty_at[last_time[dirty]] = True

    # Residencies of each set in last-access order (``evict_order``) and
    # misses of each set in program order (``miss_order``).  Both hold
    # one entry per miss, grouped by set with equal segment lengths.
    num_sets = config.num_sets
    assoc = config.associativity
    key = (lines[last_time] % num_sets) << bits | last_time
    key.sort()
    res_sets = key >> bits
    evict_order = key & ((1 << bits) - 1)
    miss_bits = max(1, int(misses - 1).bit_length())
    miss_order = _positions(fetches % num_sets, num_sets - 1, miss_bits)

    # The (assoc + k)-th miss of a set evicts its k-th residency in
    # last-access order; keep the pairs whose evicted residency is dirty.
    victims = np.flatnonzero(dirty_at[evict_order[: max(0, misses - assoc)]])
    victims = victims[res_sets[victims] == res_sets[victims + assoc]]
    evictors = miss_order[victims + assoc]
    victim_lines = lines[evict_order[victims]]

    # Next-level stream: every fetch, each followed by the writeback of
    # the dirty line it evicted, in program order.
    evicts = np.zeros(misses, dtype=np.int64)
    evicts[evictors] = 1
    fetch_slots = np.arange(misses) + np.cumsum(evicts) - evicts
    total = misses + victims.size
    next_lines = np.empty(total, dtype=np.int64)
    next_writes = np.zeros(total, dtype=bool)
    next_lines[fetch_slots] = fetches
    writeback_slots = fetch_slots[evictors] + 1
    next_lines[writeback_slots] = victim_lines
    next_writes[writeback_slots] = True
    return hits, misses, writebacks, next_lines, next_writes


def simulate_hierarchy(
    trace: AccessTrace, hierarchy: CacheHierarchy
) -> CacheSimResult:
    """Run the trace through every level of the hierarchy."""
    lines = trace.line_ids(hierarchy.line_bytes)
    writes = np.ascontiguousarray(trace.is_write, dtype=bool)
    stats: List[LevelStats] = []
    for config in hierarchy.levels:
        accesses = lines.size
        hits, misses, writebacks, lines, writes = _simulate_level(
            lines, writes, config
        )
        stats.append(
            LevelStats(config.name, accesses, hits, misses, writebacks)
        )
    return CacheSimResult(tuple(stats), hierarchy.line_bytes, len(trace))
