#!/usr/bin/env python3
"""Validate the committed BENCH_*.json perf-trajectory files.

Each committed bench JSON is a machine-readable perf claim; a regeneration
that silently drops a field (or a half-written file from an interrupted
run) breaks the cross-commit trajectory without failing any test. This
script pins the schema: every file must parse as JSON and carry the keys
the trajectory tooling reads.

Usage:
    tools/validate_benches.py [REPO_ROOT]

Exits 0 when every present file validates, 1 on any violation. Files are
allowed to be absent (a tree mid-bootstrap), but a present file must be
well-formed.
"""

import json
import sys
from pathlib import Path


def fail(errors, path, msg):
    errors.append(f"{path.name}: {msg}")


def require_keys(errors, path, obj, keys, where="top level"):
    for key in keys:
        if key not in obj:
            fail(errors, path, f"missing key '{key}' at {where}")


def validate_google_benchmark(errors, path, doc):
    """BENCH_snapshot_ablation.json: Google Benchmark --benchmark_format=json."""
    require_keys(errors, path, doc, ("context", "benchmarks"))
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail(errors, path, "'benchmarks' must be a non-empty list")
        return
    for i, row in enumerate(benches):
        require_keys(errors, path, row,
                     ("name", "iterations", "real_time", "cpu_time",
                      "time_unit"),
                     where=f"benchmarks[{i}]")


def validate_report(errors, path, doc):
    """Report-JSON benches (simulation_overhead, scheduler_handoff)."""
    require_keys(errors, path, doc,
                 ("title", "cells", "ok", "failed", "total_steps",
                  "records"))
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail(errors, path, "'records' must be a non-empty list")
        return
    for i, rec in enumerate(records):
        require_keys(errors, path, rec,
                     ("scenario", "cell_index", "mode", "seed", "steps",
                      "ok"),
                     where=f"records[{i}]")
    if doc.get("cells") != len(records):
        fail(errors, path,
             f"'cells' ({doc.get('cells')}) != len(records) ({len(records)})")


def validate_explore_throughput(errors, path, doc):
    """BENCH_explore_throughput.json: schedules/sec, replay, telemetry and
    shrink rows."""
    require_keys(errors, path, doc, ("title", "budget", "rows"))
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(errors, path, "'rows' must be a non-empty list")
        return
    for i, row in enumerate(rows):
        if "telemetry_overhead_x" in row:
            # streaming-telemetry overhead row (sharded off vs on; the
            # gated ratio is CPU time, wall is context)
            require_keys(errors, path, row,
                         ("name", "plain_cpu_ms", "telemetry_cpu_ms",
                          "plain_wall_ms", "telemetry_wall_ms",
                          "telemetry_overhead_x", "beat_cost_us", "reps"),
                         where=f"rows[{i}]")
        elif "shrink_runs" in row:
            # shrink-cost row (candidates judged vs replayed)
            require_keys(errors, path, row,
                         ("name", "schedules", "violations",
                          "shrink_replays", "shrink_runs", "shrink_wall_ms",
                          "ms_per_violation"),
                         where=f"rows[{i}]")
        elif "replay_overhead_x" in row:
            # replay-overhead comparison row
            require_keys(errors, path, row,
                         ("name", "native_wall_ms", "replay_wall_ms",
                          "replay_overhead_x", "reps", "trace_len"),
                         where=f"rows[{i}]")
        else:
            # schedules/sec throughput row
            require_keys(errors, path, row,
                         ("name", "schedules", "wall_ms",
                          "schedules_per_second", "violations",
                          "total_steps"),
                         where=f"rows[{i}]")


VALIDATORS = {
    "BENCH_snapshot_ablation.json": validate_google_benchmark,
    "BENCH_simulation_overhead.json": validate_report,
    "BENCH_scheduler_handoff.json": validate_report,
    "BENCH_explore_throughput.json": validate_explore_throughput,
}


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    errors = []
    seen = 0
    for name, validator in sorted(VALIDATORS.items()):
        path = root / name
        if not path.exists():
            print(f"skip   {name} (absent)")
            continue
        seen += 1
        try:
            doc = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            fail(errors, path, f"invalid JSON: {e}")
            continue
        if not isinstance(doc, dict):
            fail(errors, path, "top level must be a JSON object")
            continue
        validator(errors, path, doc)
        status = "FAIL" if any(e.startswith(path.name) for e in errors) else "ok"
        print(f"{status:<6} {name}")
    if seen == 0:
        print("error: no BENCH_*.json files found — wrong root?", file=sys.stderr)
        return 1
    if errors:
        print(f"\n{len(errors)} validation error(s):", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"all {seen} bench file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
