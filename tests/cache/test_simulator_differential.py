"""Differential suite: vectorized hardware simulator vs the per-access loop.

The simulator's counters are the ground truth every model comparison
reads, so the array evaluation in :mod:`repro.cache.simulator` must be
bit-for-bit the write-back LRU loop it replaced
(:mod:`tests.cache.reference_simulator`): equal :class:`LevelStats` *and*
an identical next-level ``(lines, writes)`` stream at every level.
Random streams sweep set counts, associativity, fully associative
levels, hierarchy depth and the write mix; the tiled cases replay
production-shaped streams (Pluto tiles with partial tiles).
"""

import numpy as np
import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import CacheHierarchy, CacheLevelConfig, generate_trace
from repro.cache.simulator import (
    LevelStats,
    _simulate_level,
    simulate_hierarchy,
)
from repro.poly import tile_and_parallelize
from tests.cache.reference_simulator import (
    reference_simulate_hierarchy,
    reference_simulate_levels,
)

LINE = 64

#: (num_sets, assoc) of the set-associative geometries swept.
GEOMETRIES = [(s, a) for s in (1, 2, 4, 8) for a in (1, 2, 4)]


def _hierarchy(geometries):
    """Levels with the given (num_sets, assoc), grown to strictly rise."""
    levels = []
    previous = 0
    for index, (num_sets, assoc) in enumerate(geometries):
        while num_sets * assoc * LINE <= previous:
            num_sets *= 2
        size = num_sets * assoc * LINE
        levels.append(CacheLevelConfig(f"L{index + 1}", size, LINE, assoc))
        previous = size
    return CacheHierarchy(tuple(levels))


def _vectorized_levels(lines, writes, hierarchy):
    """Per level: LevelStats and the stream passed on, array version."""
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    out = []
    for config in hierarchy.levels:
        accesses = lines.size
        hits, misses, writebacks, lines, writes = _simulate_level(
            lines, writes, config
        )
        out.append((
            LevelStats(config.name, accesses, hits, misses, writebacks),
            lines.tolist(),
            writes.tolist(),
        ))
    return out


def assert_hierarchy_matches(lines, writes, hierarchy):
    expected = reference_simulate_levels(
        [int(x) for x in lines], [bool(w) for w in writes], hierarchy
    )
    got = _vectorized_levels(lines, writes, hierarchy)
    assert len(got) == len(expected)
    for (stats, next_lines, next_writes), (
        ref_stats, ref_lines, ref_writes
    ) in zip(got, expected):
        assert stats == ref_stats
        assert stats.hits + stats.misses == stats.accesses
        assert next_lines == ref_lines
        assert next_writes == ref_writes


class TestRandomStreams:
    @pytest.mark.parametrize("write_ratio", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("num_sets,assoc", GEOMETRIES)
    def test_single_level(self, num_sets, assoc, write_ratio):
        rng = np.random.default_rng(num_sets * 100 + assoc * 10)
        hierarchy = _hierarchy([(num_sets, assoc)])
        for _ in range(12):
            n = int(rng.integers(1, 300))
            distinct = int(rng.integers(1, 4 * num_sets * assoc + 3))
            lines = rng.integers(0, distinct, n)
            writes = rng.random(n) < write_ratio
            assert_hierarchy_matches(lines, writes, hierarchy)

    @pytest.mark.parametrize("write_ratio", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_multi_level(self, depth, write_ratio):
        rng = np.random.default_rng(7 + depth)
        for _ in range(25):
            picks = rng.integers(0, len(GEOMETRIES), depth)
            hierarchy = _hierarchy([GEOMETRIES[i] for i in picks])
            n = int(rng.integers(1, 600))
            distinct = int(rng.integers(1, 3 * hierarchy.llc.num_lines + 4))
            lines = rng.integers(0, distinct, n)
            writes = rng.random(n) < write_ratio
            assert_hierarchy_matches(lines, writes, hierarchy)

    @pytest.mark.parametrize("write_ratio", [0.0, 0.3, 1.0])
    def test_fully_associative(self, write_ratio):
        rng = np.random.default_rng(11)
        for depth in (1, 2, 3):
            hierarchy = _hierarchy(
                [(4, 2), (8, 2), (16, 4)][:depth]
            ).fully_associative()
            assert all(level.num_sets == 1 for level in hierarchy.levels)
            for _ in range(10):
                n = int(rng.integers(1, 500))
                lines = rng.integers(0, 2 * hierarchy.llc.num_lines + 3, n)
                writes = rng.random(n) < write_ratio
                assert_hierarchy_matches(lines, writes, hierarchy)

    def test_streaming_and_cyclic_patterns(self):
        # Runs of repeats, strided sweeps and cycles slightly over the
        # ways: long residencies, every miss evicting, dirty and clean.
        hierarchy = _hierarchy([(4, 2), (8, 4), (16, 4)])
        rng = np.random.default_rng(3)
        patterns = [
            np.repeat(np.arange(40), 3),
            np.tile(np.arange(0, 96, 4), 4),
            np.tile(np.arange(9), 12),
            np.concatenate([np.arange(200), np.arange(200)[::-1]]),
        ]
        for lines in patterns:
            for ratio in (0.0, 0.3, 1.0):
                writes = rng.random(lines.size) < ratio
                assert_hierarchy_matches(lines, writes, hierarchy)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_empty_and_single_access(self, depth):
        hierarchy = _hierarchy([(2, 2), (4, 2), (8, 4)][:depth])
        assert_hierarchy_matches([], [], hierarchy)
        for write in (False, True):
            assert_hierarchy_matches([5], [write], hierarchy)

    def test_large_line_ids_take_the_wide_sort_keys(self):
        # Line ids far beyond the int32 packing range.
        rng = np.random.default_rng(5)
        hierarchy = _hierarchy([(4, 2), (8, 2)])
        lines = (1 << 40) + rng.integers(0, 50, 400)
        writes = rng.random(400) < 0.3
        assert_hierarchy_matches(lines, writes, hierarchy)


class TestTiledUnits:
    """Production-shaped streams: Pluto-tiled PolyBench nests."""

    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("gemm", {"ni": 13, "nj": 11, "nk": 10}),
            ("mvt", {"n": 13}),
        ],
    )
    def test_tiled_kernel_units(self, name, sizes):
        module = POLYBENCH_BUILDERS[name](**sizes)
        tiled, infos = tile_and_parallelize(module, tile_size=8)
        assert any(info.tiled_depth > 0 for info in infos)
        hierarchies = [
            _hierarchy([(2, 2), (4, 4), (16, 4)]),
            _hierarchy([(1, 4), (4, 2)]),
            _hierarchy([(2, 2), (4, 4)]).fully_associative(),
        ]
        for op in tiled.ops:
            trace = generate_trace(tiled, [op])
            assert len(trace)
            for hierarchy in hierarchies:
                assert simulate_hierarchy(
                    trace, hierarchy
                ) == reference_simulate_hierarchy(trace, hierarchy)
                assert_hierarchy_matches(
                    trace.line_ids(LINE), trace.is_write, hierarchy
                )
