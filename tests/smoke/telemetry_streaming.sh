#!/usr/bin/env bash
# End-to-end check of the cross-process health layer through the real
# CLI binary, with real `mpcn worker` subprocesses. A sharded explore
# with every sidecar on (streaming heartbeats, merged trace, flight
# recorder, health table) must produce a report byte-identical to the
# all-off run; the merged trace must carry coordinator + all 3 workers
# under distinct pids with cell_index args, sorted; the events log must
# validate against its schema and cover spawn -> dispatch -> shutdown for
# every worker; every worker must heartbeat at least once; and a worker
# SIGSTOPped between jobs must be written off by heartbeat age with its
# work requeued — report bytes still identical. At budget 12 on 3 shards
# each shipped schedule range holds one schedule; the SIGSTOP leg runs
# budget 120 (see there).
#
# Usage: telemetry_streaming.sh /path/to/mpcn   (registered with ctest)
set -euo pipefail

mpcn=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
validate_events=$(cd "$(dirname "$0")/../../tools" && pwd)/validate_events.py
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$mpcn" explore snapshot_churn --in 3,0,1 --inputs 10,11,12 \
    --budget 12 --seed 1 --shards 3 --json str_plain.json
"$mpcn" explore snapshot_churn --in 3,0,1 --inputs 10,11,12 \
    --budget 12 --seed 1 --shards 3 --json str_on.json \
    --telemetry-ms 25 --trace str_trace.json \
    --events str_events.jsonl --metrics str_metrics.json \
    --health str_health.json
cmp str_plain.json str_on.json
python3 "$validate_events" str_events.jsonl --expect-workers 3
"$mpcn" events str_events.jsonl
python3 - <<'PY'
import json
doc = json.load(open("str_trace.json"))
events = doc["traceEvents"]
meta = {e["pid"]: e["args"]["name"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"}
xs = [e for e in events if e.get("ph") == "X"]
pids = {e["pid"] for e in xs}
assert meta[1] == "coordinator", meta
assert {2, 3, 4} <= set(meta) and {2, 3, 4} <= pids, (meta, pids)
cells = [e for e in xs
         if e["name"] in ("shard.cell", "worker.cell")]
assert cells and all("cell_index" in c["args"] for c in cells)
ts = [e["ts"] for e in xs]
assert ts == sorted(ts), "merged trace not sorted"
health = json.load(open("str_health.json"))
assert len(health) == 3, health
for h in health:
    assert h["heartbeats"] >= 1, h  # >= 1 telemetry msg each
    assert not h["written_off"], h
print("streaming ok:", len(xs), "spans,",
      sum(h["heartbeats"] for h in health), "heartbeats")
PY

# SIGSTOP fault: slot 0 freezes BETWEEN jobs after replying to its first
# one — nothing outstanding, so only heartbeat age (not the per-job
# watchdog) can notice the silence. The leg needs the coordinator to
# hand the frozen worker a second job, which it does only if work is
# still queued when the first reply lands. At budget 12 (one-schedule
# ranges) a slow-starting slot 0 could reply after slots 1 and 2 had
# drained the queue, and the run then ended with slot 0 never written
# off; budget 120 (ten-schedule ranges, still 12 of them) keeps the
# queue non-empty for that reply.
"$mpcn" explore snapshot_churn --in 3,0,1 --inputs 10,11,12 \
    --budget 120 --seed 1 --shards 3 --json str_plain120.json
MPCN_WORKER_STOP_AFTER=1,0,0 "$mpcn" explore snapshot_churn \
    --in 3,0,1 --inputs 10,11,12 --budget 120 --seed 1 \
    --shards 3 --json str_stop.json --telemetry-ms 25 \
    --stale-ms 500 --events str_stop_events.jsonl \
    --health str_stop_health.json
cmp str_plain120.json str_stop.json
python3 - <<'PY'
import json
health = json.load(open("str_stop_health.json"))
stopped = health[0]
assert stopped["written_off"], stopped
assert stopped["write_off_reason"] == "heartbeat stale", stopped
events = [json.loads(l) for l in open("str_stop_events.jsonl")]
gaps = [e for e in events if e["type"] == "heartbeat_gap"]
assert any(e["slot"] == 0 for e in gaps), events
requeues = [e for e in events if e["type"] == "cell_requeue"]
assert requeues, events
print("write-off ok:", stopped["write_off_reason"], "-",
      len(requeues), "cell(s) requeued")
PY

# The summarizer digests the churny log and reports the chain.
"$mpcn" events str_stop_events.jsonl --json > events_summary.json
python3 - <<'PY'
import json
s = json.load(open("events_summary.json"))
assert s["events"] >= 1 and s["malformed"] == 0, s
assert s["counts"].get("worker_spawn", 0) == 3, s["counts"]
assert s["requeue_chains"], s
print("events summary ok:", s["counts"])
PY

echo "telemetry streaming ok"
