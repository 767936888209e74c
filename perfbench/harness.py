"""Turns the driver's raw measurements into the benchmark's metrics.

Pure functions only (no I/O), so test_harness.py can check each rule:
the tail-percentile rule, failed-record counting, the metric-name rules
of BENCHMARK.json, and how end-to-end and per-layer metrics are derived.
"""

import math
import re
import statistics

# Tail rule: the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it. Samples are cut into windows of TAIL_WINDOW (the last
# window takes the remainder), the rule is applied per window and the
# mean over windows is reported. A fixed window keeps the percentile the
# same however many samples a faster or slower build produces. p50 is the
# mean of the medians of windows of P50_WINDOW, the fewest samples with
# TAIL_BEYOND beyond their median.
#
# The mean, not the median, over windows: the host alternates between a
# fast and a slow speed every few seconds, so a window's value falls into
# one of two modes, and a median over windows lands on either one
# depending on which had a few more windows, where a mean moves in
# proportion to the time spent in each. Small p50 windows fall within
# one mode; a run has few windows of 100, and those mix modes.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
TAIL_WINDOW = 100
P50_WINDOW = 20

DEFAULT_SEED = 1

WORKLOADS = ("churn_explore", "racy_sharded", "bg_grid")

# Per-layer metrics of modules that do no work on a workload. They are
# reported as 0 there; every other per-layer metric must be measured.
SHRINK_ONLY = ("explore.shrink_ms_p50", "explore.shrink_ms_tail",
               "explore.shrink_replays_per_violation")
SHARD_ONLY = ("dist.shard_speedup",)
GRID_ONLY = ("experiment.pool_busy_share", "core.sim_step_ns",
             "core.steps_per_cell.n4_t3_x2", "core.steps_per_cell.n6_t5_x3",
             "core.steps_per_cell.n8_t7_x4", "core.step_ratio.n4_t3_x2",
             "core.step_ratio.n6_t5_x3", "core.step_ratio.n8_t7_x4")
EXPLORE_ONLY = ("explore.search_share", "explore.shrink_share",
                "explore.overhead_share", "explore.replay_us")
DIRECT_MODE_ONLY = ("history.events_per_run", "analysis.find_races_us")
NOT_APPLICABLE = {
    "churn_explore": SHRINK_ONLY + SHARD_ONLY + GRID_ONLY,
    "racy_sharded": GRID_ONLY,
    "bg_grid": SHRINK_ONLY + SHARD_ONLY + EXPLORE_ONLY + DIRECT_MODE_ONLY,
}

# The driver, and the shard workers it forks, run confined to one CPU:
# the highest-numbered one allowed (CPU 0 tends to take device
# interrupts). A lock-step cell runs one thread at a time, and on a
# virtual machine a handoff that wakes a thread on another, idle vCPU
# waits for the hypervisor to run that vCPU; under load from other
# tenants that made runs of the same code on 2 or 4 CPUs differ by up to
# 2-4x (see README.md). So every figure, wait-strategy and sharding ones
# included, holds for one CPU only.


def confine(allowed):
    """The CPU set the driver runs on."""
    return [max(allowed)]


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def nearest_rank(sorted_samples, percentile):
    """The nearest-rank percentile of ascending samples."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_samples[rank - 1]


def beyond(n, percentile):
    """Samples ranked strictly after the nearest-rank percentile."""
    return n - max(1, math.ceil(percentile / 100.0 * n))


def window_tail(samples):
    """(value, percentile) of one window under the tail rule. With too few
    samples for any ladder percentile, the maximum (percentile 100)."""
    s = sorted(samples)
    for p in reversed(PERCENTILE_LADDER):
        if beyond(len(s), p) >= TAIL_BEYOND:
            return nearest_rank(s, p), p
    return s[-1], 100.0


def windows(samples, size):
    """Consecutive windows of `size` samples; the last takes the
    remainder."""
    if not samples:
        raise ValueError("no samples")
    count = max(1, len(samples) // size)
    return [samples[w * size:len(samples) if w == count - 1 else (w + 1) * size]
            for w in range(count)]


def p50(samples):
    """Mean over windows of P50_WINDOW of each window's median."""
    return statistics.fmean(statistics.median(w)
                            for w in windows(samples, P50_WINDOW))


def tail(samples):
    """Mean over windows of TAIL_WINDOW of each window's tail.

    Returns (value, percentile, sample_count)."""
    tails = [window_tail(w) for w in windows(samples, TAIL_WINDOW)]
    return (statistics.fmean(v for v, _ in tails),
            min(p for _, p in tails), len(samples))


def digest_check(workload, seed, got, committed):
    """The report-digest check of a run, or None for a seed without a
    committed digest. `committed` maps workload to the digest of call 0's
    report (timing fields excluded) for DEFAULT_SEED."""
    if seed != DEFAULT_SEED:
        return None
    want = committed.get(workload)
    return {"name": "report_digest", "ok": want is not None and got == want,
            "detail": "got %s, committed %s" % (got, want)}


def run_correct(checks, failed, attempted):
    """A run is correct when every check passed, no record failed and
    something was attempted."""
    return all(c["ok"] for c in checks) and failed == 0 and attempted >= 1


def count_failed(outcomes):
    """Records that ended in an error or timed out. A task-verdict or race
    violation is a search result, not a failure."""
    return sum(1 for o in outcomes if o.get("error") or o.get("timed_out"))


def failed_share(attempted, outcomes):
    if attempted < 1:
        raise ValueError("nothing attempted")
    return count_failed(outcomes) / attempted


def _total(calls, key):
    return sum(c[key] for c in calls)


def end_to_end(raw):
    """End-to-end metrics of an untraced run.

    Rates are totals over the run's calls, not medians of per-call rates:
    the host alternates between a fast and a slow speed every few
    seconds, and a median over calls lands on either mode depending on
    which one had a few more calls, where a total moves in proportion to
    the time spent in each."""
    calls = raw["calls"]
    wall = _total(calls, "wall_s")
    steps = _total(calls, "steps")
    cell_tail, tail_pct, tail_n = tail(raw["cell_ms"])
    metrics = {
        "schedules_per_s": _total(calls, "schedules") / wall,
        "cells_per_s": _total(calls, "cells") / wall,
        "steps_per_s": steps / wall,
        "cpu_us_per_step": (_total(calls, "user_s") +
                            _total(calls, "sys_s")) * 1e6 / steps,
        "cell_ms_p50": p50(raw["cell_ms"]),
        "cell_ms_tail": cell_tail,
        "setup_s": p50(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    detail = {"cell_ms_tail_percentile": tail_pct,
              "cell_ms_samples": tail_n,
              "calls": len(calls),
              "setup_samples": len(raw["setup_s"])}
    return metrics, detail


# Sample series reported as p50 and tail; every other series as a median.
TAILED_SAMPLES = {"explore.shrink_ms", "experiment.run_cell_us"}


def per_layer(raw, names):
    """Per-layer metrics of a traced run, in the order of `names`.

    Raises KeyError naming any metric that was neither measured nor
    declared not applicable to the workload."""
    values = dict(raw["layers"])
    detail = {}
    for series, samples in raw["samples"].items():
        if not samples:
            continue
        if series in TAILED_SAMPLES:
            value, p, n = tail(samples)
            values[series + "_p50"] = p50(samples)
            values[series + "_tail"] = value
            detail[series + "_tail_percentile"] = p
            detail[series + "_samples"] = n
        else:
            values[series] = statistics.median(samples)
    untraced = raw["decomposed_untraced_s"]
    parts = sum(p["s"] for p in raw["parts"])
    values["obs.residue_share"] = (untraced - parts) / untraced
    skipped = NOT_APPLICABLE[raw["workload"]]
    out = {}
    missing = []
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name in skipped:
            out[name] = 0.0
        else:
            missing.append(name)
    if missing:
        raise KeyError("per-layer metrics not measured: " + ", ".join(missing))
    return out, detail


def residue_table(raw):
    """Lines showing each traced part against the untraced wall."""
    untraced = raw["decomposed_untraced_s"]
    lines = ["parts of %s over %d call(s), untraced wall %.4f s:"
             % (raw["workload"], raw["decomposed_calls"], untraced)]
    total = 0.0
    for p in raw["parts"]:
        total += p["s"]
        lines.append("  %-28s %10.4f s  %6.1f%%"
                     % (p["name"], p["s"], 100.0 * p["s"] / untraced))
    residue = untraced - total
    lines.append("  %-28s %10.4f s  %6.1f%%" % (
        "unattributed residue", residue, 100.0 * residue / untraced))
    lines.append("  tracing overhead (traced / untraced wall): %.4f"
                 % (raw["traced_s"] / raw["untraced_s"]))
    return lines


def validate_benchmark(doc):
    """Errors in a BENCHMARK.json document (empty when it is valid)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        errors.append("keys must be exactly %s" % sorted(keys))
        return errors
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command: no absolute paths or '..'")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and
                ".." not in p.split("/") for p in paths)):
        errors.append("paths: 1 to 16 relative directory names")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and
            1 <= rs <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    seen = set()

    def check_name(section, name):
        if not (isinstance(name, str) and NAME_RE.match(name)):
            errors.append("%s: bad name %r" % (section, name))
        elif name in seen:
            errors.append("%s: name %r used twice" % (section, name))
        seen.add(name)

    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        errors.append("workloads: 2 to 8")
        wl = []
    for w in wl:
        if set(w) != {"name", "why"}:
            errors.append("workloads: keys are name and why")
            continue
        check_name("workloads", w["name"])
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and
                "\n" not in w["why"]):
            errors.append("workloads: why of %r must be one line" % w["name"])
    for section, lo, hi, keys_ in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = doc[section]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            errors.append("%s: %d to %d metrics" % (section, lo, hi))
            continue
        for m in ms:
            if set(m) != keys_:
                errors.append("%s: keys are %s" % (section, sorted(keys_)))
                continue
            check_name(section, m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                errors.append("%s: bad unit %r" % (section, m["unit"]))
            if m["better"] not in ("higher", "lower"):
                errors.append("%s: better is higher or lower" % section)
            if "bound" in m and not (
                    isinstance(m["bound"], (int, float)) and
                    not isinstance(m["bound"], bool) and
                    0 < m["bound"] <= 0.25):
                errors.append("%s: bound of %r must be in (0, 0.25]"
                              % (section, m["name"]))
    setup = [m for m in doc["end_to_end"]
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and
            setup[0].get("better") == "lower"):
        errors.append("end_to_end: setup_s in s, lower is better, is required")
    return errors
