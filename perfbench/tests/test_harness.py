"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

from types import SimpleNamespace

import pytest

import golden
import harness
import tracing
import workloads
from repro.service import JobSpec


class TestTailRule:
    @pytest.mark.parametrize("n, value, percentile", [
        (22, 11.0, 100.0 * 12 / 22), (30, 19.0, 100.0 * 20 / 30),
        (100, 89.0, 90.0),
    ])
    def test_keeps_ten_beyond_when_it_can(self, n, value, percentile):
        tail = harness.tail_latency([float(i) for i in range(n)][::-1])
        assert tail["value"] == value
        assert tail["percentile"] == pytest.approx(percentile)
        assert tail["samples"] == n
        if percentile > 50.0:
            assert tail["beyond"] == 10
            assert sum(x > value for x in range(n)) == 10

    @pytest.mark.parametrize("n", [1, 2, 14, 21])
    def test_small_samples_read_the_median(self, n):
        samples = [float(i * i) for i in range(n)]
        tail = harness.tail_latency(samples)
        assert tail["value"] == harness.median(samples)
        assert tail["percentile"] == 50.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            harness.tail_latency([])


class TestSelfTime:
    def span(self, name, start, end, parent=None):
        return tracing.Span(name, start, end, parent)

    def test_overlapping_children_count_once(self):
        spans = [
            self.span("root", 0.0, 10.0),
            self.span("a", 1.0, 5.0, 0),
            self.span("b", 3.0, 7.0, 0),   # overlaps a on [3, 5]
            self.span("c", 8.0, 12.0, 0),  # outlives the parent
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 6.0 - 2.0)
        assert own[1:] == [4.0, 4.0, 4.0]

    def test_nested_spans_from_the_tracer(self):
        clock = iter([0.0, 1.0, 3.0, 10.0]).__next__
        tracer = tracing.Tracer(clock=clock)
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(outer)
        assert tracer.spans[inner].parent == outer
        assert tracer.self_time_by_name() == {"outer": 8.0, "inner": 2.0}

    def test_wrap_records_only_while_recording_and_uninstalls(self):
        target = SimpleNamespace(work=lambda x: [x] * 3)
        original = target.work
        tracer = tracing.Tracer()
        tracer.wrap(target, "work", "layer",
                    tracing._length("layer.items", None))
        target.work(1)
        assert tracer.spans == []
        tracer.recording = True
        assert target.work(2) == [2, 2, 2]
        assert [span.name for span in tracer.spans] == ["layer"]
        assert tracer.counts["layer.calls"] == 1
        assert tracer.counts["layer.items"] == 3
        tracer.uninstall()
        assert target.work is original


def plans(cls, seed, episodes=3):
    workload = cls(seed, golden=None)
    if cls is workloads.GovernorReplay:
        workload.pool = workloads.trace_pool()
    return [
        [[getattr(item, "name", None) or item.to_json() for item in phase]
         for phase in workload.plan(episode)]
        for episode in range(episodes)
    ]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
class TestSeeds:
    def test_same_seed_same_requests(self, cls):
        assert plans(cls, 7) == plans(cls, 7)

    def test_other_seed_other_requests(self, cls):
        assert plans(cls, 7) != plans(cls, 8)

    def test_requests_come_from_the_golden_pools(self, cls):
        known = {golden.spec_key(s) for s in workloads.all_report_specs()}
        traces = {trace.name for trace in workloads.all_traces()}
        workload = cls(3, golden=None)
        workload.pool = workloads.trace_pool()
        for phase in workload.plan(0):
            for item in phase:
                if isinstance(item, JobSpec):
                    assert golden.spec_key(item) in known
                else:
                    assert item.name in traces


def fake_report(cap=2.4):
    unit = SimpleNamespace(
        name="u0", cap_ghz=cap, oi_fpb=1.5, boundedness="BB", omega=10,
        q_dram_model=64, model_level_bytes=(1, 2), model_dram_lines=1,
        cores_fraction=1.0, parallel=True, level_accesses_hw=(3, 4),
        dram_fetch_bytes_hw=64, dram_writeback_bytes_hw=0, dram_lines_hw=1,
        degraded="exact",
    )
    return SimpleNamespace(units=[unit])


class TestGolden:
    def test_report_mismatch_is_flagged(self):
        spec = JobSpec(benchmark="atax")
        expected = golden.Golden({
            "reports": {golden.spec_key(spec): golden.report_digest(
                fake_report()
            )},
            "traces": {},
        })
        assert expected.check_report(spec, fake_report())
        assert not expected.check_report(spec, fake_report(cap=2.5))
        assert not expected.check_report(
            JobSpec(benchmark="bicg"), fake_report()
        )
        assert len(expected.mismatches) == 2

    def test_engine_does_not_change_the_key(self):
        assert golden.spec_key(JobSpec(benchmark="gemm")) == golden.spec_key(
            JobSpec(benchmark="gemm", engine="parametric")
        )

    def test_edp_table_mismatch_is_flagged(self):
        row = {"time_s": 1.0, "energy_j": 2.0, "edp": 2.0,
               "cap_switches": 3, "truncated": False}
        table = {"static": row, "reactive": row}
        replay = SimpleNamespace(
            spec=SimpleNamespace(name="steady-rpl-s0"),
            edp_table=lambda: table,
        )
        expected = golden.Golden({
            "reports": {}, "traces": {"steady-rpl-s0": table},
        })
        assert expected.check_replay(replay)
        table = {"static": row, "reactive": {**row, "edp": 2.0001}}
        assert not expected.check_replay(replay)
        table = {"static": row, "reactive": {**row, "cap_switches": 4}}
        assert not expected.check_replay(replay)
        assert len(expected.mismatches) == 2


def test_ledger_flags_imbalance():
    assert harness.ledger({"submitted": 3, "completed": 2, "shed": 1})[
        "balanced"]
    assert not harness.ledger({"submitted": 3, "completed": 2})["balanced"]


def test_geomean_gain():
    assert harness.geomean_gain([0.5, 2.0]) == pytest.approx(0.0)
    assert harness.geomean_gain([0.25]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        harness.geomean_gain([0.0])


class TestHostClock:
    def clock(self, monkeypatch, readings, mix):
        """A clock whose references read ``readings`` times nominal."""
        values = iter(readings)
        monkeypatch.setattr(
            harness, "reference_s",
            lambda name: next(values) * harness.REFERENCES[name][1],
        )
        return harness.HostClock(mix)

    def test_stretch_uses_the_references_around_it(self, monkeypatch):
        clock = self.clock(monkeypatch, [1.0, 3.0, 2.0], {"interp": 1.0})
        ops = [harness.Op("a", latency_s=4.0), harness.Op("b", latency_s=2.0)]
        assert clock.stretch(ops, 6.0) == pytest.approx(3.0)
        assert [op.nominal_s for op in ops] == [2.0, 1.0]
        assert clock.stretch([], 5.0) == pytest.approx(2.0)

    def test_mix_weighs_each_reference(self, monkeypatch):
        # interp reads 1, 3; memory reads 2, 2: slowdown 0.5*2 + 0.5*2
        clock = self.clock(
            monkeypatch, [1.0, 2.0, 3.0, 2.0],
            {"interp": 0.5, "memory": 0.5},
        )
        assert clock.stretch([], 4.0) == pytest.approx(2.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            harness.HostClock({"interp": 0.5})


class TestRunEpisodes:
    def episodes(self, seconds, wall, nominal):
        return harness.run_episodes(
            lambda index: harness.Episode([], wall, nominal_s=nominal),
            seconds,
        )

    def test_counts_nominal_time(self):
        # 2.5 nominal s each: 4 episodes come nearest 10 s at any speed
        assert len(self.episodes(10.0, 3.5, 2.5)) == 4
        assert len(self.episodes(10.0, 1.0, 2.5)) == 4
        assert len(self.episodes(10.0, 2.5, 2.5)) == 4

    def test_wall_cap_ends_a_run_on_a_slow_host(self):
        # 4 episodes would take 40 s of wall; the cap stops at 13 s
        assert len(self.episodes(10.0, 10.0, 2.5)) == 2
