"""Tests for the trace/CM memoization layer."""

import numpy as np
import pytest

from repro.benchsuite.polybench import POLYBENCH_BUILDERS
from repro.cache import (
    CacheHierarchy,
    CacheLevelConfig,
    clear_memo,
    generate_trace,
    memoized_cm,
    memoized_trace,
    polyufc_cm,
    unit_fingerprint,
)
from repro.cache import memo
from repro.cache.memo import _cm_lru, _trace_lru, cached_trace


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def hier(lines=8, assoc=2):
    return CacheHierarchy((CacheLevelConfig("L1", lines * 64, 64, assoc),))


def module():
    return POLYBENCH_BUILDERS["gemm"](ni=8, nj=6, nk=5)


class TestFingerprint:
    def test_stable_across_equal_modules(self):
        assert unit_fingerprint(module(), None, hier()) == unit_fingerprint(
            module(), None, hier()
        )

    def test_sensitive_to_every_input(self):
        base = unit_fingerprint(module(), None, hier())
        assert base != unit_fingerprint(
            POLYBENCH_BUILDERS["gemm"](ni=9, nj=6, nk=5), None, hier()
        )
        assert base != unit_fingerprint(module(), None, hier(lines=16))
        assert base != unit_fingerprint(module(), None, hier(), threads=8)
        assert base != unit_fingerprint(module(), None, hier(), parallel=True)

    def test_sensitive_to_traced_ops(self):
        mod = module()
        assert unit_fingerprint(mod, None, hier()) != unit_fingerprint(
            mod, mod.ops[:1], hier()
        )


class TestInProcessMemo:
    def test_cm_reused(self):
        result_a = memoized_cm(module(), None, hier())
        hits_before = _cm_lru.hits
        result_b = memoized_cm(module(), None, hier())
        assert result_a == result_b
        assert _cm_lru.hits == hits_before + 1

    def test_trace_reused(self):
        trace_a = memoized_trace(module())
        trace_b = memoized_trace(module())
        assert trace_a is trace_b

    def test_matches_unmemoized(self):
        mod = module()
        direct = polyufc_cm(generate_trace(mod), hier())
        assert memoized_cm(mod, None, hier()) == direct

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CM_MEMO", "0")
        memoized_cm(module(), None, hier())
        memoized_cm(module(), None, hier())
        assert _cm_lru.hits == 0 and _cm_lru.misses == 0

    def test_distinct_requests_not_conflated(self):
        serial = memoized_cm(module(), None, hier())
        threaded = memoized_cm(
            module(), None, hier(), threads=4, parallel=True
        )
        assert serial.threads != threaded.threads


def _forbid_generation(monkeypatch):
    monkeypatch.setattr(
        memo, "generate_trace",
        lambda *a, **k: pytest.fail("cached_trace generated a trace"),
    )


class TestCachedTrace:
    """The generate-free lookup of a trace :func:`memoized_trace` stored."""

    def test_returns_the_stored_object(self, monkeypatch):
        mod = module()
        stored = memoized_trace(mod, mod.ops[:1])
        _forbid_generation(monkeypatch)
        assert cached_trace(mod, mod.ops[:1]) is stored
        # an equal module prints identically: same fingerprint, same slot
        twin = module()
        assert cached_trace(twin, twin.ops[:1]) is stored

    def test_none_on_miss(self, monkeypatch):
        mod = module()
        memoized_trace(mod, mod.ops[:1])
        _forbid_generation(monkeypatch)
        assert cached_trace(mod) is None  # other ops
        assert cached_trace(mod, mod.ops[:1], max_accesses=10) is None
        assert cached_trace(POLYBENCH_BUILDERS["mvt"](n=5)) is None

    def test_none_when_memo_disabled(self, monkeypatch):
        mod = module()
        memoized_trace(mod)
        monkeypatch.setenv("REPRO_CM_MEMO", "0")
        _forbid_generation(monkeypatch)
        assert cached_trace(mod) is None


class TestDiskMemo:
    def test_roundtrip_through_disk(self, tmp_path):
        first = memoized_cm(module(), None, hier(), memo_dir=tmp_path)
        assert list(tmp_path.glob("cm_*.json"))
        clear_memo()
        again = memoized_cm(module(), None, hier(), memo_dir=tmp_path)
        assert first == again
        # the reload was served from disk, not recomputed: the trace LRU
        # never saw a request
        assert _trace_lru.misses == 0

    def test_corrupt_entry_recomputed(self, tmp_path):
        memoized_cm(module(), None, hier(), memo_dir=tmp_path)
        for path in tmp_path.glob("cm_*.json"):
            path.write_text("{not json")
        clear_memo()
        result = memoized_cm(module(), None, hier(), memo_dir=tmp_path)
        assert result == polyufc_cm(generate_trace(module()), hier())

    def test_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CM_MEMO_DIR", str(tmp_path))
        memoized_cm(module(), None, hier())
        assert list(tmp_path.glob("cm_*.json"))


class TestLruBounds:
    def test_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setenv("REPRO_CM_MEMO_SIZE", "2")
        hierarchies = [hier(lines=4 * (i + 1)) for i in range(3)]
        for h in hierarchies:
            memoized_cm(module(), None, h)
        assert len(_cm_lru._data) == 2
