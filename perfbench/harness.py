"""Shared machinery of the repo benchmark.

* the hermetic environment every run starts from (fresh cache directory,
  every ``REPRO_*`` knob cleared or pinned and recorded);
* the build cache: store snapshots that several workloads start from,
  computed once per checkout and keyed on the source tree;
* the closed-loop client and the service event ledger;
* the host-speed reference every host time is scaled by;
* the statistics every metric is reported with (median, the tail rule,
  geomean EDP gain, peak RSS).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform as platform_mod
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Lifecycle kinds that balance the service ledger.
TERMINAL_KINDS = ("completed", "failed", "shed")

#: Math-library thread pools, pinned to one thread: on a host of few
#: shared cores a second spinning BLAS thread measures the neighbours.
THREAD_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- environment ---------------------------------------------------------


def build_dir() -> Path:
    """Where build products and per-run scratch live, inside the checkout.

    ``$CARGO_TARGET_DIR`` names it when set, else ``.bench_build``; a
    relative value is taken from the checkout root.
    """
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def hermetic_env(executor: Optional[str] = None) -> dict:
    """Clear every ``REPRO_*`` knob and point the cache at a fresh directory.

    Returns the record the run prints: which knobs were cleared, the
    fresh cache directory, and the pinned executor (``None`` keeps the
    service's host default).  The caller removes ``cache_dir`` at exit.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="run-", dir=runs))
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    # Anything the program or NumPy puts in a temporary file stays in
    # the checkout too.
    os.environ["TMPDIR"] = str(cache_dir)
    tempfile.tempdir = str(cache_dir)
    if executor is not None:
        os.environ["REPRO_SERVICE_EXECUTOR"] = executor
    for name in THREAD_KNOBS:
        os.environ[name] = "1"
    return {
        "cleared": cleared,
        "cache_dir": str(cache_dir),
        "pinned": {
            "REPRO_CACHE_DIR": "fresh per run",
            "REPRO_SERVICE_EXECUTOR": executor or "host default",
            **{name: "1" for name in THREAD_KNOBS},
        },
    }


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process and every process it starts on one CPU.

    The closed loop has one request in flight, so the timed work never
    needs a second CPU; on one CPU, the references measure the speed of
    the CPU that pool workers run on.  Returns the CPU, or ``None``
    where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_record() -> dict:
    """Host facts every result is read against."""
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform_mod.machine(),
        "python": platform_mod.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def source_fingerprint(extra: object = None) -> str:
    """Digest of the program's source tree (plus ``extra``)."""
    digest = hashlib.sha256(json.dumps(extra, sort_keys=True).encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached_build(name: str, key: object, build: Callable[[Path], None]) -> Path:
    """A directory ``build`` fills once per checkout and source tree.

    Built into a temporary sibling and renamed into place, so an
    interrupted build never leaves a half-filled directory behind.
    """
    target = build_dir() / f"{name}-{source_fingerprint(key)}"
    if not target.exists():
        staging = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=build_dir()))
        try:
            build(staging)
            os.replace(staging, target)
        except OSError:
            if not target.exists():  # not a concurrent build's win
                raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return target


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process (pool workers) to end."""
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def peak_rss_mb() -> float:
    """Max RSS of this process and of its ended, waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- host speed ----------------------------------------------------------
#
# A shared host's speed drifts by a factor of up to two over tens of
# seconds, more than any bound a wall-clock figure could keep.  So fixed
# reference loops, which use nothing of the program, are timed next to
# it, and host times are reported in *nominal seconds*: wall seconds
# divided by how much slower than nominal the references ran.  A change
# to the program cannot change the references.

#: Samples each reference takes the median of.
REFERENCE_REPEATS = 3

#: A run's timed wall is kept below this many times ``--seconds``.
WALL_CAP = 1.3

#: Elements of the memory reference's array (16 MB, beyond the caches).
MEMORY_ELEMENTS = 2_000_000

_memory_array = None


def interp_loop(n: int = 50_000) -> int:
    """Interpreter-bound reference: dict, list and integer work."""
    table: dict = {}
    acc, kept = 0, []
    for i in range(n):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 7
        if not i & 15:
            kept.append(acc)
    kept.sort()
    return acc + len(table)


def memory_loop() -> float:
    """Memory-bound reference: NumPy passes over an array beyond the caches."""
    global _memory_array
    import numpy

    if _memory_array is None:
        index = numpy.arange(MEMORY_ELEMENTS, dtype=numpy.int64)
        _memory_array = ((index * 7919) % MEMORY_ELEMENTS).astype(float)
    data = _memory_array
    total = 0.0
    for _ in range(2):
        total += float(numpy.sort(data[: MEMORY_ELEMENTS // 4])[-1])
        total += float((data * 2.0 + 1.0).sum())
    return total


#: name -> (loop, its wall seconds on the nominal host: a 2-CPU x86
#: machine shared with other work, at its median speed; quiet, the same
#: machine runs the loops about 1.4 and 1.2 times faster)
REFERENCES = {
    "interp": (interp_loop, 0.018),
    "memory": (memory_loop, 0.019),
}


def reference_s(name: str) -> float:
    """Median wall seconds of :data:`REFERENCE_REPEATS` runs of a reference."""
    loop, _ = REFERENCES[name]
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostClock:
    """Gives each timed stretch the host slowdown over it.

    The references are timed before the first stretch and after each
    one, outside the stretches' own timing.  ``mix`` weighs each
    reference's slowdown (weights summing to one) by the share of the
    workload's time that is of its kind: interpreter-bound Python, or
    memory-bound NumPy and process start-up.
    """

    def __init__(self, mix: Dict[str, float]):
        self.mix = {name: weight for name, weight in mix.items() if weight}
        if abs(sum(self.mix.values()) - 1.0) > 1e-9:
            raise ValueError(f"reference weights must sum to 1: {mix}")
        self.last = self.sample()

    def sample(self) -> float:
        """The host's slowdown now, as the weighted reference slowdowns."""
        return sum(
            weight * reference_s(name) / REFERENCES[name][1]
            for name, weight in self.mix.items()
        )

    def stretch(self, ops: Sequence["Op"], wall_s: float) -> float:
        """Mark ``ops`` with the slowdown; return ``wall_s`` in nominal s."""
        after = self.sample()
        slowdown = (self.last + after) / 2.0
        self.last = after
        for op in ops:
            op.slowdown = slowdown
        return wall_s / slowdown


# -- statistics ----------------------------------------------------------


def tail_latency(samples: Sequence[float]) -> dict:
    """The tail value with the percentile and the sample counts behind it.

    The highest nearest-rank percentile that keeps ``TAIL_BEYOND``
    samples beyond it.  With too few samples for any such percentile
    above the median, the tail reads as the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 1:
        raise ValueError("no samples")
    index = n - 1 - TAIL_BEYOND
    if index <= (n - 1) / 2:
        return {
            "value": statistics.median(ordered),
            "percentile": 50.0,
            "samples": n,
            "beyond": n // 2,
        }
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / n,
        "samples": n,
        "beyond": TAIL_BEYOND,
    }


def geomean_gain(ratios: Sequence[float]) -> float:
    """``1 - geomean(EDP_policy / EDP_reference)`` over positive ratios."""
    if not ratios or any(r <= 0 for r in ratios):
        raise ValueError(f"EDP ratios must be positive, got {ratios}")
    return 1.0 - math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- the service ledger and closed-loop clients ---------------------------


def ledger(counts: Dict[str, int]) -> dict:
    """``submitted == completed + failed + shed`` over a quiesced stream."""
    submitted = counts.get("submitted", 0)
    terminal = sum(counts.get(kind, 0) for kind in TERMINAL_KINDS)
    return {
        "submitted": submitted,
        "terminal": terminal,
        "balanced": submitted == terminal,
    }


@dataclass
class Op:
    """One closed-loop request and what came back."""

    request: object
    latency_s: float = 0.0
    result: object = None
    error: Optional[str] = None
    job_id: Optional[str] = None
    shed: bool = False
    #: how much slower than nominal the host ran around this op
    slowdown: float = 1.0

    @property
    def nominal_s(self) -> float:
        """The latency in nominal seconds."""
        return self.latency_s / self.slowdown


def closed_loop(
    requests: Sequence[object], send: Callable[[object, Op], object]
) -> List[Op]:
    """Send ``requests`` from one closed-loop client.

    The next request goes out only after the previous one returned;
    ``send(request, op)`` blocks until the result is back and may record
    the job id or shed flag on ``op``.  Latency runs from the call to its
    return (submit to result).  Exceptions are recorded per op, never
    raised, so one failure cannot stop the load.

    One client, because the service's host default is one worker
    (``REPRO_CM_WORKERS`` unset): a second client would only queue
    behind the first, and each op's latency would depend on which job
    it queued behind -- that is, on the seed's order.
    """
    ops = []
    for request in requests:
        op = Op(request)
        started = time.perf_counter()
        try:
            op.result = send(request, op)
        except Exception as exc:  # counted as a failed op
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency_s = time.perf_counter() - started
        ops.append(op)
    return ops


@dataclass
class Episode:
    """One timed stretch of a workload (set-up and checks excluded)."""

    ops: List[Op]
    wall_s: float
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: ``wall_s`` in nominal seconds
    nominal_s: float = 0.0


def run_episodes(
    run_one: Callable[[int], Episode], seconds: float
) -> List[Episode]:
    """Run the whole episodes whose timed time comes nearest ``seconds``.

    Another episode starts while less than half a (mean) episode of the
    requested time is left.  Time is counted in nominal seconds, so a
    run holds the same episodes however fast the host runs, and the
    tail's rank among them does not move with the host's speed.  On a
    host more than :data:`WALL_CAP` times slower than nominal, the run
    ends once its timed wall reaches ``WALL_CAP * seconds``.
    """
    episodes: List[Episode] = []
    timed = wall = 0.0
    while not episodes or (
        timed + timed / len(episodes) / 2 < seconds
        and wall < WALL_CAP * seconds
    ):
        episode = run_one(len(episodes))
        episodes.append(episode)
        timed += episode.nominal_s
        wall += episode.wall_s
    return episodes


def print_json_line(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
