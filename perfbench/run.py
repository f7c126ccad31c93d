"""The repo benchmark: PolyUFC through its service and governor APIs.

    python3 perfbench/run.py --workload cold_registry --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
End-to-end host times are in nominal seconds: wall seconds scaled by
the host's speed, as fixed reference loops timed around them give it.
The last line of standard output is the result object; the line before
it records the run's environment, executor, tail percentile and the
same host times in plain wall seconds.  Exits non-zero, without a
result, when the program's source is missing.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

#: set-up is repeated this many times per run; the median is reported
SETUP_REPEATS = 5

#: seconds one set-up may take before the run fails
SETUP_TIMEOUT_S = 120


def prepare(trace: bool) -> dict:
    """Check for the program, make it importable, start from a clean env."""
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {harness.SRC}")
    sys.path.insert(0, str(harness.SRC))
    return harness.hermetic_env("thread" if trace else None)


def setup_only(workload: str, seed: int) -> None:
    """One set-up as a user's process pays it: imports, then the set-up."""
    sys.path.insert(0, str(harness.SRC))
    import workloads
    from golden import Golden

    workloads.WORKLOADS[workload](seed, Golden.load()).setup()


def timed_setup(workload: str, seed: int, mix: dict) -> dict:
    """Median of fresh-interpreter set-ups, timed from spawn to exit.

    Each pays interpreter start, the program's and NumPy's imports, the
    calibration and the workload's own set-up (store prefill, trace
    generation) in the run's hermetic environment.  Each is scaled to
    nominal seconds by the references timed around it.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    clock = harness.HostClock(mix)
    walls, nominal = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            command, check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - started)
        nominal.append(clock.stretch([], walls[-1]))
    return {
        "nominal_s": harness.median(nominal),
        "wall_s": harness.median(walls),
    }


def summarize(episodes) -> dict:
    """Totals of a run; rates and latencies in nominal seconds."""
    ops = [op for episode in episodes for op in episode.ops]
    wall = sum(episode.wall_s for episode in episodes)
    nominal = sum(episode.nominal_s for episode in episodes)
    return {
        "ops": ops,
        "latencies": [op.nominal_s for op in ops],
        "attempted": len(ops),
        "failed": sum(episode.failed for episode in episodes),
        "wall_s": wall,
        "ops_per_s": len(ops) / nominal,
        "wall_ops_per_s": len(ops) / wall,
        "episodes": [round(episode.wall_s, 3) for episode in episodes],
        "slowdowns": [
            round(episode.wall_s / episode.nominal_s, 3)
            for episode in episodes
        ],
        "notes": [note for episode in episodes for note in episode.notes],
    }


def end_to_end(workload, seconds: float, setup: dict, info: dict):
    workload.setup()
    run = summarize(harness.run_episodes(workload.episode, seconds))
    latencies = run["latencies"]
    tail = harness.tail_latency(latencies)
    walls = [op.latency_s for op in run["ops"]]
    statics = [ratio[0] for ratio in workload.ratios.values()]
    adaptives = [ratio[1] for ratio in workload.ratios.values()]
    info.update({
        "episodes": run["episodes"],
        "slowdowns": run["slowdowns"],
        "timed_s": run["wall_s"],
        "tail": {k: v for k, v in tail.items() if k != "value"},
        # the same metrics in wall seconds, unscaled
        "wall": {
            "setup_s": setup["wall_s"],
            "ops_per_s": run["wall_ops_per_s"],
            "op_latency_p50_s": harness.median(walls),
            "op_latency_tail_s": harness.tail_latency(walls)["value"],
        },
        "edp_samples": len(statics),
        "notes": run["notes"],
    })
    metrics = {
        "setup_s": (setup["nominal_s"], "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "op_latency_p50_s": (harness.median(latencies), "s"),
        "op_latency_tail_s": (tail["value"], "s"),
        "ok_fraction": (1.0 - run["failed"] / run["attempted"], "ratio"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "edp_gain_vs_ufs": (harness.geomean_gain(statics), "ratio"),
        "adaptive_edp_gain_vs_ufs": (harness.geomean_gain(adaptives), "ratio"),
    }
    return run, metrics


def per_layer(cls, seed, golden, seconds: float, info: dict):
    """Half the time untraced, then the same episodes traced."""
    import tracing

    plain = cls(seed, golden)
    plain.setup()
    baseline = summarize(harness.run_episodes(plain.episode, seconds / 2))
    tracer = tracing.install(tracing.Tracer())
    try:
        traced = cls(seed, golden, tracer)
        traced.setup()
        run = summarize(harness.run_episodes(traced.episode, seconds / 2))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, traced, run, baseline)
    info["traced_executor"] = traced.service.get("executor", "in-process")
    info["timed_s"] = run["wall_s"] + baseline["wall_s"]
    run["attempted"] += baseline["attempted"]
    run["failed"] += baseline["failed"]
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    # a terminated run still removes its directory and waits for workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = prepare(bool(args.trace))
    try:
        import workloads
        from golden import Golden

        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(
                f"unknown workload {args.workload!r}; "
                f"expected one of {sorted(workloads.WORKLOADS)}"
            )
        cls = workloads.WORKLOADS[args.workload]
        workloads.prefill_snapshot()  # a build step: first run only
        env["cpu"] = harness.pin_to_one_cpu()
        golden = Golden.load()
        info = {"workload": args.workload, "seed": args.seed, "env": env}
        info["host"] = harness.host_record()
        if args.trace:
            run, metrics = per_layer(
                cls, args.seed, golden, args.seconds, info
            )
        else:
            setup = timed_setup(args.workload, args.seed, cls.reference_mix)
            workload = cls(args.seed, golden)
            run, metrics = end_to_end(workload, args.seconds, setup, info)
            info["service"] = workload.service
        info["golden_mismatches"] = golden.mismatches[:5]
    finally:
        shutil.rmtree(env["cache_dir"], ignore_errors=True)
        harness.reap_children()
    harness.print_json_line({"info": info})
    harness.print_json_line({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
