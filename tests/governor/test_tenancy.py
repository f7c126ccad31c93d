"""Tests for the multi-tenant socket contention model."""

import pytest

from repro.governor import (
    AdaptiveSocketPolicy,
    FixedFrequencyPolicy,
    IsolationMaxPolicy,
    OracleSocketPolicy,
    ReactiveSocketPolicy,
    Tenant,
    TenantKernel,
    TenancyConfig,
    contended_workload,
    hindsight_oracle,
    run_multitenant,
    scale_workload,
    socket_step,
)
from repro.hw import KernelWorkload, get_platform
from repro.hw.execution import execute_fixed
from tests.hw.test_execution import bb_workload, cb_workload


@pytest.fixture(scope="module")
def platform():
    return get_platform("rpl")


def tenant(name, *workloads, cap=None):
    return Tenant(
        name=name,
        kernels=tuple(
            TenantKernel(workload=wl, cap_ghz=cap) for wl in workloads
        ),
    )


class TestContendedWorkload:
    def test_full_share_is_identity(self, platform):
        wl = bb_workload()
        assert contended_workload(
            wl, 1.0, platform.hierarchy.line_bytes
        ) is wl

    def test_half_share_displaces_hits_to_dram(self, platform):
        # 40k LLC hits (accesses minus DRAM lines) are displacement fodder
        wl = KernelWorkload(
            "hits", 1_000_000, (500_000, 100_000, 50_000),
            640_000, 0, 10_000,
        )
        line = platform.hierarchy.line_bytes
        shared = contended_workload(wl, 0.5, line)
        assert shared.dram_lines > wl.dram_lines
        assert shared.dram_fetch_bytes == wl.dram_fetch_bytes + (
            shared.dram_lines - wl.dram_lines
        ) * line
        # flops and private-cache traffic untouched
        assert shared.flops == wl.flops
        assert shared.level_accesses == wl.level_accesses

    def test_no_llc_level_is_identity(self, platform):
        wl = KernelWorkload("flat", 1000, (100, 10), 640, 0, 10)
        assert contended_workload(
            wl, 0.5, platform.hierarchy.line_bytes
        ) is wl


class TestSocketStep:
    def test_single_tenant_matches_isolated_run(self, platform):
        wl = cb_workload()
        step = socket_step(platform, [wl], 2.0)
        isolated = execute_fixed(platform, wl, 2.0, noisy=False)
        assert step.full_times[0] == pytest.approx(isolated.time_s)

    def test_bandwidth_contention_stretches_everyone(self, platform):
        wl = bb_workload()
        alone = socket_step(platform, [wl], 2.0).full_times[0]
        pair = socket_step(platform, [wl, bb_workload("bb2")], 2.0)
        assert pair.full_times[0] > alone
        assert pair.full_times[1] > alone

    def test_shared_uncore_counted_once(self, platform):
        """Socket power is less than the sum of standalone package powers
        (constant + uncore terms are shared, not duplicated)."""
        wl = bb_workload()
        alone = socket_step(platform, [wl], 2.0).socket_power_w
        pair = socket_step(platform, [wl, bb_workload("bb2")], 2.0)
        assert pair.socket_power_w < 2 * alone

    def test_boundedness_orders_kernels(self, platform):
        bb_step = socket_step(platform, [bb_workload()], 2.0)
        cb_step = socket_step(platform, [cb_workload()], 2.0)
        assert bb_step.boundedness > cb_step.boundedness


class TestPolicies:
    def test_isolation_max_takes_max_cap(self, platform):
        policy = IsolationMaxPolicy(platform)
        units = [
            TenantKernel(workload=cb_workload(), cap_ghz=1.2),
            TenantKernel(workload=bb_workload(), cap_ghz=3.4),
        ]
        assert policy.frequency((), units, 2.0, None) == pytest.approx(3.4)

    def test_isolation_max_defaults_missing_caps_to_fmax(self, platform):
        policy = IsolationMaxPolicy(platform)
        units = [TenantKernel(workload=cb_workload(), cap_ghz=None)]
        assert policy.frequency((), units, 2.0, None) == (
            platform.uncore.f_max_ghz
        )

    def test_reactive_starts_at_fraction(self, platform):
        policy = ReactiveSocketPolicy(platform, start_fraction=0.85)
        freq = policy.frequency((), [], platform.uncore.f_max_ghz, None)
        assert freq == pytest.approx(
            platform.uncore.clamp(0.85 * platform.uncore.f_max_ghz)
        )

    def test_adaptive_seeds_from_isolation_max(self, platform):
        policy = AdaptiveSocketPolicy(platform)
        units = [TenantKernel(workload=cb_workload(), cap_ghz=1.3)]
        combo = (("t0", "cb"),)
        assert policy.frequency(
            combo, units, platform.uncore.f_max_ghz, None
        ) == pytest.approx(1.3)

    def test_oracle_memoizes_per_combo(self, platform):
        policy = OracleSocketPolicy(platform)
        units = [TenantKernel(workload=cb_workload(), cap_ghz=None)]
        combo = (("t0", "cb"),)
        first = policy.frequency(combo, units, 2.0, None)
        second = policy.frequency(combo, units, 2.0, None)
        assert first == second
        assert combo in policy._memo


class TestRunMultitenant:
    def test_records_all_kernels_with_tenant_names(self, platform):
        tenants = [
            tenant("a", scale_workload(cb_workload(), 5),
                   scale_workload(bb_workload(), 2), cap=2.0),
            tenant("b", scale_workload(bb_workload("bb2"), 2),
                   scale_workload(cb_workload("cb2"), 5), cap=2.0),
        ]
        result = run_multitenant(
            platform, tenants, IsolationMaxPolicy(platform)
        )
        assert sorted(run.name for run in result.runs) == [
            "a:bb", "a:cb", "b:bb2", "b:cb2",
        ]
        assert result.time_s > 0
        assert result.energy_j > 0
        assert not result.truncated

    def test_makespan_not_sum_of_tenant_times(self, platform):
        """Tenants run concurrently: the makespan is far below the sum of
        per-kernel wall times."""
        tenants = [
            tenant("a", scale_workload(cb_workload(), 10), cap=2.0),
            tenant("b", scale_workload(cb_workload("cb2"), 10), cap=2.0),
        ]
        result = run_multitenant(
            platform, tenants, IsolationMaxPolicy(platform)
        )
        assert result.time_s < 0.75 * sum(r.time_s for r in result.runs)

    def test_oracle_beats_reactive(self, platform):
        tenants = [
            tenant("a", scale_workload(cb_workload(), 10), cap=1.2),
            tenant("b", scale_workload(bb_workload(), 4), cap=3.4),
        ]
        reactive = run_multitenant(
            platform, tenants, ReactiveSocketPolicy(platform)
        )
        oracle = run_multitenant(
            platform, tenants, OracleSocketPolicy(platform)
        )
        assert oracle.edp <= reactive.edp * 1.0005

    def test_hindsight_oracle_lower_bounds_online_policies(self, platform):
        tenants = [
            tenant("a", scale_workload(cb_workload(), 10), cap=1.2),
            tenant("b", scale_workload(bb_workload(), 4), cap=3.4),
        ]
        oracle = hindsight_oracle(platform, tenants)
        for policy in (
            IsolationMaxPolicy(platform),
            ReactiveSocketPolicy(platform),
            AdaptiveSocketPolicy(platform),
            FixedFrequencyPolicy(platform, 2.0),
        ):
            result = run_multitenant(platform, tenants, policy)
            assert oracle.edp <= result.edp * 1.0005

    def test_zero_duration_kernel_completes_instantly(self, platform):
        empty = KernelWorkload("empty", 0, (0, 0, 0), 0, 0, 0)
        tenants = [
            tenant("a", empty, scale_workload(cb_workload(), 5), cap=2.0),
            tenant("b", scale_workload(cb_workload("cb2"), 5), cap=2.0),
        ]
        result = run_multitenant(
            platform, tenants, IsolationMaxPolicy(platform)
        )
        names = [run.name for run in result.runs]
        assert "a:empty" in names
        empty_run = next(r for r in result.runs if r.name == "a:empty")
        assert empty_run.time_s == 0.0
        assert not result.truncated

    def test_truncation_warns(self, platform):
        tenants = [
            tenant("a", scale_workload(cb_workload(), 50), cap=2.0),
            tenant("b", scale_workload(cb_workload("cb2"), 50), cap=2.0),
        ]
        result = run_multitenant(
            platform,
            tenants,
            IsolationMaxPolicy(platform),
            TenancyConfig(max_intervals=3),
        )
        assert result.truncated
        assert result.warnings[0].startswith("max_intervals=3")

    def test_oracle_uses_the_runs_llc_displacement(self, platform):
        """The greedy oracle minimizes the socket score under the run's
        own contention, not under the default displacement."""
        def llc_heavy(name):
            return KernelWorkload(
                name, 4_000_000, (4_000_000, 2_000_000, 1_000_000),
                20_000 * 64, 0, 20_000, parallel=True, threads=8,
            )

        tenants = [tenant("a", llc_heavy("a")), tenant("b", llc_heavy("b"))]
        for displacement in (0.0, 1.0):
            config = TenancyConfig(llc_displacement=displacement)
            line = platform.hierarchy.line_bytes
            contended = [
                contended_workload(llc_heavy(n), 0.5, line, displacement)
                for n in ("a", "b")
            ]
            expected = min(
                platform.uncore.frequencies(),
                key=lambda f: socket_step(platform, contended, f).score,
            )
            result = run_multitenant(
                platform, tenants, OracleSocketPolicy(platform), config
            )
            assert [run.f_uncore_ghz for run in result.runs] == [
                expected, expected,
            ]

    def test_tenant_count_validated(self, platform):
        with pytest.raises(ValueError):
            run_multitenant(platform, [], IsolationMaxPolicy(platform))
        too_many = [
            tenant(f"t{i}", cb_workload(), cap=2.0) for i in range(9)
        ]
        with pytest.raises(ValueError):
            run_multitenant(
                platform, too_many, IsolationMaxPolicy(platform)
            )
