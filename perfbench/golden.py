"""Expected outputs of every request the benchmark can generate.

``golden.json`` holds

* ``reports``: spec key -> digest over each unit's cap, OI,
  boundedness, model counters and hardware counters;
* ``traces``: trace name -> the per-policy EDP table of its replay.

Every workload draws its requests from finite pools (see
``workloads.py``), so the file covers every seed.  A report is keyed by
its request without the engine: all CM engines must produce the same
numbers, so a chart-served parametric report and a concrete ``fast`` one
share a key.  Regenerate after an intended change of the numbers with::

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: relative tolerance on simulated time/energy/EDP floats
EDP_RTOL = 1e-9


def spec_key(spec) -> str:
    """A request's identity without its engine or execution knobs."""
    fields = spec.to_json()
    for name in ("engine", "cm_timeout_s"):
        fields.pop(name)
    return json.dumps(fields, sort_keys=True)


def report_digest(report) -> str:
    """Digest over what a user reads off a report."""
    rows = [
        [
            unit.name, unit.cap_ghz, unit.oi_fpb, unit.boundedness,
            unit.omega, unit.q_dram_model, list(unit.model_level_bytes),
            unit.model_dram_lines, unit.cores_fraction, unit.parallel,
            list(unit.level_accesses_hw), unit.dram_fetch_bytes_hw,
            unit.dram_writeback_bytes_hw, unit.dram_lines_hw,
            unit.degraded,
        ]
        for unit in report.units
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def edp_table(replay) -> Dict[str, dict]:
    return {
        policy: {
            "time_s": row["time_s"],
            "energy_j": row["energy_j"],
            "edp": row["edp"],
            "cap_switches": row["cap_switches"],
            "truncated": row["truncated"],
        }
        for policy, row in replay.edp_table().items()
    }


def tables_match(expected: dict, actual: dict) -> bool:
    """Same policies, same switch counts, floats within ``EDP_RTOL``."""
    if set(expected) != set(actual):
        return False
    for policy, want in expected.items():
        got = actual[policy]
        if set(want) != set(got):
            return False
        for name, value in want.items():
            if isinstance(value, float):
                if not math.isclose(value, got[name], rel_tol=EDP_RTOL):
                    return False
            elif value != got[name]:
                return False
    return True


class Golden:
    """Loaded expectations plus the mismatches seen so far."""

    def __init__(self, data: dict):
        self.reports: Dict[str, str] = data["reports"]
        self.traces: Dict[str, dict] = data["traces"]
        self.mismatches: list = []

    @classmethod
    def load(cls, path: Path = GOLDEN_PATH) -> "Golden":
        return cls(json.loads(path.read_text()))

    def check_report(self, spec, report) -> bool:
        key = spec_key(spec)
        want: Optional[str] = self.reports.get(key)
        got = report_digest(report)
        if want != got:
            self.mismatches.append({"spec": key, "want": want, "got": got})
            return False
        return True

    def check_replay(self, replay) -> bool:
        name = replay.spec.name
        want = self.traces.get(name)
        got = edp_table(replay)
        if want is None or not tables_match(want, got):
            self.mismatches.append({"trace": name})
            return False
        return True


def write_golden() -> dict:
    """Compute every pooled request once and write ``golden.json``."""
    import os

    import workloads
    from repro.governor import replay_trace
    from repro.service import ServiceClient

    reports = {}
    store = Path(os.environ["REPRO_CACHE_DIR"]) / "golden-store"
    with ServiceClient(store=store) as client:
        for spec in workloads.all_report_specs():
            report = client.submit(spec).result()
            if not report.fully_exact:
                raise RuntimeError(f"{spec.label()} is not exact")
            reports[spec_key(spec)] = report_digest(report)
            print(f"  {spec.label()} {dict(spec.sizes)}", file=sys.stderr)
    traces = {}
    workloads.prefill_store()
    for trace in workloads.all_traces():
        traces[trace.name] = edp_table(replay_trace(trace))
        print(f"  {trace.name}", file=sys.stderr)
    data = {"reports": reports, "traces": traces}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/golden.py --write")
    import shutil

    import run

    env = run.prepare(trace=False)
    try:
        data = write_golden()
    finally:
        shutil.rmtree(env["cache_dir"], ignore_errors=True)
    print(
        f"wrote {len(data['reports'])} report digests and "
        f"{len(data['traces'])} trace tables to {GOLDEN_PATH}"
    )
