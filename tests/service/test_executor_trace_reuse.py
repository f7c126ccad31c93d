"""The hardware-side simulation reuses the trace the CM generated.

:func:`repro.service.executor.execute_report` simulates each unit on the
exact trace its CM evaluation left in the in-process memo, so a cold
fast-engine job generates every trace once.  With the memo disabled it
falls back to generating the trace itself, and the counters are the same
either way.
"""

import pytest

from repro.cache.memo import clear_memo
from repro.service import executor
from repro.service.spec import JobSpec

SPEC = JobSpec(benchmark="atax", engine="fast", sizes={"m": 48, "n": 40})


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def hw_calls(monkeypatch):
    """Count calls through the executor's module-level hardware hooks."""
    calls = {"generate_trace": 0, "simulate_hierarchy": 0}
    for name in calls:
        original = getattr(executor, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(executor, name, counted)
    return calls


def _hw_counters(report):
    return [
        (
            unit.level_accesses_hw,
            unit.dram_fetch_bytes_hw,
            unit.dram_writeback_bytes_hw,
            unit.dram_lines_hw,
        )
        for unit in report.units
    ]


def test_cold_fast_job_never_regenerates_a_trace(hw_calls, monkeypatch):
    monkeypatch.delenv("REPRO_CM_MEMO", raising=False)
    report = executor.execute_report(SPEC)
    assert report.fully_exact
    assert hw_calls["generate_trace"] == 0
    assert hw_calls["simulate_hierarchy"] == len(report.units)


def test_disabled_memo_generates_the_trace(hw_calls, monkeypatch):
    monkeypatch.delenv("REPRO_CM_MEMO", raising=False)
    reused = executor.execute_report(SPEC)
    clear_memo()
    hw_calls["simulate_hierarchy"] = 0
    monkeypatch.setenv("REPRO_CM_MEMO", "0")
    regenerated = executor.execute_report(SPEC)
    assert hw_calls["generate_trace"] == len(regenerated.units)
    assert hw_calls["simulate_hierarchy"] == len(regenerated.units)
    assert _hw_counters(regenerated) == _hw_counters(reused)
