#!/usr/bin/env bash
# End-to-end checks of `mpcn explore` across its schedule sources, run
# through the real CLI binary (sharded legs spawn real `mpcn worker`
# subprocesses):
#   (a) a recorded trace replays byte-identically (record -> replay ->
#       re-record -> cmp);
#   (b) the seeded PCT search finds the racy_register exhibit (exit 1)
#       and hands back a shrunk, still-failing counterexample;
#   (c) --threads 8 reproduces the serial report byte for byte, for a
#       found and a clean search;
#   (d) --shards reproduces the in-process report byte for byte for a
#       race search (exit 3) and a crash-product search (exit 4);
#   (e) the shrinker's sidecar counters agree across serial, --threads
#       and --shards, and it reruns at most the candidates it judges;
#   (f) the max-violations stop reaches the shard workers: they serve
#       fewer schedules than the budget, with the in-process report.
#
# Usage: explore_backends.sh /path/to/mpcn   (registered with ctest)
set -euo pipefail

mpcn=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Run a command and require its exit code to be $1.
expect_exit() {
  local want=$1 code=0
  shift
  "$@" || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "FAIL: want exit $want, got $code: $*"
    exit 1
  fi
}

# (a) record -> replay -> re-record byte identity.
"$mpcn" explore racy_register --in 2,0,1 --policy random \
    --budget 1 --seed 7 --record trace1.json
"$mpcn" explore racy_register --in 2,0,1 \
    --replay trace1.json --record trace2.json
cmp trace1.json trace2.json

# (b) + (c) PCT finds the seeded bug, serially and on 8 threads alike.
expect_exit 1 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 300 --seed 1 --json explore.json
expect_exit 1 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 300 --seed 1 --threads 8 --json explore_t8.json
cmp explore.json explore_t8.json
"$mpcn" explore racy_register --in 2,0,1 --policy random \
    --budget 200 --seed 7 --json rand_serial.json
"$mpcn" explore racy_register --in 2,0,1 --policy random \
    --budget 200 --seed 7 --threads 8 --json rand_t8.json
cmp rand_serial.json rand_t8.json
python3 - <<'PY'
import json
with open("explore.json") as f:
    result = json.load(f)
assert result["found"], result
v = result["violation_details"][0]
assert v["shrunk_verified"], v
assert v["shrunk_len"] <= 14, v
assert "validity" in v["why"], v
print("explorer smoke ok: violation at schedule",
      v["schedule_index"], "shrunk to", v["shrunk_len"], "grants")
with open("shrunk.json", "w") as f:
    json.dump(v["shrunk_trace"], f)
PY
# The shrunk counterexample replays to the same failure.
expect_exit 1 "$mpcn" explore racy_register --in 2,0,1 --replay shrunk.json

# (d) sharded and 8-thread race searches == in-process, byte for byte.
expect_exit 3 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 200 --seed 1 --max-violations 3 --check-races \
    --json race_local.json --metrics race_local_m.json
expect_exit 3 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 200 --seed 1 --max-violations 3 --check-races \
    --shards 3 --json race_shard.json --metrics race_shard_m.json
cmp race_local.json race_shard.json
expect_exit 3 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 200 --seed 1 --max-violations 3 --check-races \
    --threads 8 --json race_t8.json --metrics race_t8_m.json
cmp race_local.json race_t8.json

# (d) sharded random product search == in-process, byte for byte.
expect_exit 4 "$mpcn" explore safe_agreement_window --in 2,1,1 \
    --policy random --budget 200 --seed 7 --steps 400 \
    --crash-budget 1 --crash-rate 0.2 --json crash_local.json
expect_exit 4 "$mpcn" explore safe_agreement_window --in 2,1,1 \
    --policy random --budget 200 --seed 7 --steps 400 \
    --crash-budget 1 --crash-rate 0.2 --shards 2 --json crash_shard.json
cmp crash_local.json crash_shard.json

# (e) explore.shrink_runs counts candidates replayed, shrink_replays
# candidates judged: runs <= replays, and both equal on every backend.
python3 - <<'PY'
import json
counts = []
for name in ("race_local_m.json", "race_t8_m.json", "race_shard_m.json"):
    with open(name) as f:
        c = json.load(f)["merged"]["counters"]
    counts.append((c["explore.shrink_replays"], c["explore.shrink_runs"]))
assert len(set(counts)) == 1, counts
replays, runs = counts[0]
assert 0 < runs <= replays, counts
print("shrink counters ok:", runs, "runs for", replays, "judged candidates")
PY

# (f) the stop reaches the workers: 85 schedules are accounted, and the
# pool must not serve all 8 ranges of the 200-schedule budget.
expect_exit 3 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 200 --seed 1 --check-races --shards 0 --json stop_local.json
expect_exit 3 "$mpcn" explore racy_register --in 2,0,1 --policy pct \
    --budget 200 --seed 1 --check-races --shards 2 --json stop_shard.json \
    --metrics stop_shard_m.json
cmp stop_local.json stop_shard.json
python3 - <<'PY'
import json
with open("stop_shard_m.json") as f:
    served = json.load(f)["merged"]["counters"]["worker.cells_served"]
assert served < 200, served
print("early stop ok: workers served", served, "of 200 schedules")
PY

echo "explore backends ok"
