"""The per-access write-back LRU loop: the hardware simulator's oracle.

This is the simulator as it was first written -- one Python list walk per
access, LRU order kept by ``list.index``/``insert``.  It is too slow for
paper-size units, so production runs the vectorized
:func:`repro.cache.simulator.simulate_hierarchy`; the differential suite
(``tests/cache/test_simulator_differential.py``) requires both to
produce identical counters and identical next-level streams.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cache.config import CacheHierarchy, CacheLevelConfig
from repro.cache.simulator import CacheSimResult, LevelStats
from repro.cache.trace import AccessTrace


def reference_simulate_level(
    lines: List[int],
    writes: List[bool],
    config: CacheLevelConfig,
) -> Tuple[int, int, int, List[int], List[bool]]:
    """Simulate one write-back LRU level.

    Returns (hits, misses, writebacks, next_lines, next_writes): the filtered
    stream the next level observes (fetch reads + writeback writes).
    """
    num_sets = config.num_sets
    assoc = config.associativity
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: List[List[bool]] = [[] for _ in range(num_sets)]
    hits = 0
    misses = 0
    writebacks = 0
    next_lines: List[int] = []
    next_writes: List[bool] = []

    for line, is_write in zip(lines, writes):
        set_index = line % num_sets
        ways = sets[set_index]
        flags = dirty[set_index]
        try:
            way = ways.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            hits += 1
            ways.insert(0, ways.pop(way))
            flags.insert(0, flags.pop(way) or is_write)
        else:
            misses += 1
            next_lines.append(line)
            next_writes.append(False)  # fetch is a read
            if len(ways) >= assoc:
                evicted_dirty = flags.pop()
                evicted_line = ways.pop()
                if evicted_dirty:
                    writebacks += 1
                    next_lines.append(evicted_line)
                    next_writes.append(True)
            ways.insert(0, line)
            flags.insert(0, is_write)

    # Flush: dirty lines still resident write back at kernel end.  They are
    # charged to this level's writeback count but not replayed into the
    # next level's stream.
    for flags_list in dirty:
        writebacks += sum(flags_list)
    return hits, misses, writebacks, next_lines, next_writes


def reference_simulate_levels(
    lines: List[int], writes: List[bool], hierarchy: CacheHierarchy
) -> List[Tuple[LevelStats, List[int], List[bool]]]:
    """Per level: its counters and the stream it passes to the next level."""
    out = []
    for config in hierarchy.levels:
        accesses = len(lines)
        hits, misses, writebacks, lines, writes = reference_simulate_level(
            lines, writes, config
        )
        out.append((
            LevelStats(config.name, accesses, hits, misses, writebacks),
            lines,
            writes,
        ))
    return out


def reference_simulate_hierarchy(
    trace: AccessTrace, hierarchy: CacheHierarchy
) -> CacheSimResult:
    """Run the trace through every level of the hierarchy."""
    levels = reference_simulate_levels(
        trace.line_ids(hierarchy.line_bytes).tolist(),
        trace.is_write.tolist(),
        hierarchy,
    )
    return CacheSimResult(
        tuple(stats for stats, _lines, _writes in levels),
        hierarchy.line_bytes,
        len(trace),
    )
