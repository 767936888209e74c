#!/usr/bin/env python3
"""The repository benchmark: builds the library and driver (Release) and
runs one workload.

    python3 perfbench/run.py --workload <churn_explore|racy_sharded|bg_grid>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to .bench_build/perfbench;
results, with their provenance, to .bench_build/perfbench/results, and the
traced run's Chrome trace-event file (Perfetto loads it) beside them. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A failed correctness check prints correct: false and exits
with status 1.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")
# Variables that would change what is measured; removed from the driver's
# environment and recorded.
SCRUBBED_ENV = ("MPCN_WAIT_STRATEGY", "MPCN_PROGRESS", "MPCN_PROGRESS_MS")
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170


def fail(message, status=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(status)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or a.seed >= 2 ** 63:
        p.error("--seed must be in [0, 2^63)")
    if not 0 < a.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return a


def cache_build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the driver; build output to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "explore",
                                                  "explorer.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources missing (%s); run from a full checkout"
                 % needed)
    if cache_build_type() not in (None, "Release"):
        fail("%s holds a %s build; only Release builds are timed"
             % (BUILD, cache_build_type()))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cache_build_type() is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], r.returncode))
    if cache_build_type() != "Release":
        fail("build type is %s, not Release" % cache_build_type())


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(raw, scrubbed, cpus):
    return {"git_sha": git_sha(),
            "compiler": raw["build"]["compiler"],
            "build_type": raw["build"]["type"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "driver_cpus": cpus,
            "scrubbed_env": scrubbed}


def run_driver(a, trace_out, cpus):
    env = dict(os.environ)
    scrubbed = {k: env.pop(k) for k in SCRUBBED_ENV if k in env}
    cmd = [DRIVER, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=DRIVER_TIMEOUT_S,
                           preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("driver did not finish: %s" % e, 1)
    if r.returncode != 0:
        fail("driver exited %d" % r.returncode, 1)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing", 1)
    return json.loads(lines[-1]), scrubbed


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    a = parse_args()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    errors = harness.validate_benchmark(spec)
    if errors:
        fail("BENCHMARK.json: " + "; ".join(errors))
    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    trace_out = os.path.join(results, stem + ".trace.json") if a.trace else ""
    cpus = harness.confine(os.sched_getaffinity(0))
    raw, scrubbed = run_driver(a, trace_out, cpus)

    checks = {c["name"]: c for c in raw["checks"]}
    failed = harness.count_failed(raw["outcomes"])
    attempted = raw["attempted"]
    digest = harness.digest_check(a.workload, a.seed, raw["digest"],
                                  load_json(DIGESTS))
    if digest:
        checks[digest["name"]] = digest
    correct = harness.run_correct(checks.values(), failed, attempted)

    if a.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, detail = harness.per_layer(raw, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for line in harness.residue_table(raw):
            print(line)
    else:
        metrics, detail = harness.end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}

    for c in checks.values():
        if not c["ok"]:
            print("check failed: %s (%s)" % (c["name"], c["detail"]))
    for name, value in metrics.items():
        print("%-40s %18.6f %s" % (name, value, units[name]))

    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace,
              "provenance": provenance(raw, scrubbed, cpus),
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_share": (harness.failed_share(attempted, raw["outcomes"])
                               if attempted else None),
              "checks": list(checks.values()), "digest": raw["digest"],
              "metrics": metrics, "detail": detail,
              "trace_file": trace_out or None}
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"], "detail": detail}))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
