// The distributed shard runner: a coordinator that fans an experiment
// grid out over worker SUBPROCESSES speaking the JSON-lines wire
// protocol (wire.h), and the worker loop those subprocesses run.
//
// Topology: one coordinator, K workers, one socketpair per worker. The
// coordinator streams jobs — a grid cell (run_sharded) or a sharded
// explore's schedule range (run_sharded_ranges) — one outstanding job
// per worker, next job dispatched on reply arrival, so load balances
// itself regardless of per-job cost. One loop serves both job kinds.
// Fault handling:
//
//   * a worker that dies (EOF, failed write, exec failure) or violates
//     the protocol is written off and its outstanding job is requeued
//     onto the surviving workers;
//   * a worker whose outstanding job overruns its own wall_limit (times
//     the schedule count, for a range) plus the watchdog grace is
//     SIGKILLed and treated the same;
//   * with streaming telemetry armed (telemetry_interval > 0), every
//     worker heartbeats on an interval and after each job; a worker not
//     heard from for heartbeat_stale_after — busy OR idle — is written
//     off by heartbeat age, catching workers that freeze BETWEEN jobs,
//     which the per-job watchdog cannot see;
//   * a written-off worker's SLOT is respawned (fresh subprocess, same
//     fault-injection quota) after a capped exponential backoff, up to
//     max_respawns attempts per slot — transient churn shrinks the pool
//     only temporarily;
//   * if every worker is gone, every respawn budget is spent and jobs
//     remain, the coordinator runs the remainder in-process through the
//     workers' own runners — a sharded run degrades, it never loses
//     cells (set fallback_in_process = false to get a clean
//     ProtocolError instead).
//
// The merged Report is reassembled in grid order via Report::merge
// (keyed by cell_index, duplicate-tolerant for cells that completed on
// two workers after a requeue) and is byte-identical (timing excluded)
// to an in-process BatchRunner run of the same cells, because workers
// rebuild cells from the scenario registry and execute the very same
// run_cell() path.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/dist/wire.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/obs/spans.h"

namespace mpcn {

struct WorkerOptions {
  // Fault injection for coordinator tests and `mpcn worker --max-cells`:
  // exit WITHOUT replying upon receiving the max_cells-th job message
  // (cell or chunk), simulating a worker crash with a job in flight.
  // 0 = serve forever.
  int max_cells = 0;
  // Fault injection for the health layer (`mpcn worker --stop-after`):
  // after REPLYING to the stop_after_cells-th job, raise(SIGSTOP) —
  // the worker freezes BETWEEN jobs with nothing outstanding, exactly
  // the silence only heartbeat staleness (not the per-cell watchdog)
  // can detect. 0 = never.
  int stop_after_cells = 0;
};

// Serve jobs over `io` until shutdown or EOF: write hello, then answer
// every cell line with a result line and every chunk line with a
// chunk_result line (run_schedule_range, on one scratch kept across
// chunks). Never crashes on bad input: unparsable lines are answered
// with an error line; a cell that fails to rebuild or execute yields a
// result whose record captures the error.
// A telemetry config line arms the worker-side heartbeat streamer (see
// wire.h); all writes — results, error lines and heartbeats — are
// serialized on one mutex so lines never interleave.
void run_worker_loop(LineIO& io, const WorkerOptions& options = {});

// The coordinator's live view of one worker SLOT, fed by streaming
// telemetry and filled in as the run progresses. Slots persist across
// respawns (a fresh subprocess reuses its slot's entry). Sidecar-only,
// like everything in src/obs: the Report never sees it.
struct WorkerHealth {
  int slot = -1;
  std::int64_t heartbeats = 0;      // telemetry reports received
  std::int64_t last_seq = -1;       // highest heartbeat seq seen
  std::int64_t cells_served = 0;    // schedules answered by this slot
  // Age of the last sign of life (any bytes received, or spawn) when
  // the slot was last examined: at write-off or teardown.
  std::int64_t last_heard_age_ms = -1;
  int respawns = 0;
  bool written_off = false;
  std::string write_off_reason;     // "" when never written off
  // Folded heartbeat deltas: merge()-reconstructed running totals of
  // the slot's process-local metrics (lost work of a dead worker stays
  // lost, exactly like its shutdown snapshot would be).
  MetricsSnapshot telemetry;
};

// The pool and sidecar knobs every sharded entry point shares, declared
// once: ShardOptions, BatchOptions and ExploreOptions all inherit them,
// and each layer hands the slice down by assignment. Apart from
// `shards` and `worker_argv` (which pick the backend), every knob is
// sidecar-only: none of them can change a report byte. In-process
// backends read only `shards` and `progress`.
struct PoolOptions {
  // > 0: distribute over this many worker subprocesses. Requires
  // wire-serializable cells, i.e. ones built from Experiment::named.
  int shards = 0;
  // argv for worker subprocesses (e.g. {"/path/to/mpcn", "worker"}).
  // Empty: fork the current process image and run run_worker_loop
  // directly — no binary needed, used by tests and library callers.
  std::vector<std::string> worker_argv;
  // Fault injection for the health layer, fork mode: slot i freezes
  // (SIGSTOP) after replying to its worker_stop_after[i]-th job. In
  // exec mode the equivalent is `mpcn worker --stop-after N`.
  std::vector<int> worker_stop_after;
  // stderr progress heartbeat: in-process backends sample a completion
  // counter from a thread; the shard pool prints as results arrive.
  bool progress = false;
  // Non-null: ask each worker for a MetricsSnapshot at shutdown (the
  // wire's opt-in metrics exchange) and append every snapshot received.
  // Workers that died mid-run contribute nothing — their counts are
  // lost with the process, exactly like their requeued cells' first
  // attempts.
  std::vector<MetricsSnapshot>* worker_metrics = nullptr;
  // Streaming telemetry: > 0 arms every worker's heartbeat (a telemetry
  // config line sent at spawn and respawn) at this interval. Workers
  // also beat immediately on arming and after every cell, so ≥ 1
  // heartbeat arrives per worker even on an idle pool.
  std::chrono::milliseconds telemetry_interval{0};
  // Health write-off: with the heartbeat armed, a worker not heard from
  // (no bytes of any kind) for this long is presumed frozen and written
  // off — busy or idle. <= 0 disables; meaningless without
  // telemetry_interval (an unarmed worker is rightfully silent between
  // cells). Choose a multiple of telemetry_interval with headroom for
  // scheduling noise.
  std::chrono::milliseconds heartbeat_stale_after{0};
  // Non-null: harvest each live worker's span rings at shutdown
  // (`"trace":true` on the shutdown line) and append one ProcessTrace
  // per delivering worker, pid = slot + 2 (pid 1 is the coordinator),
  // clocks aligned to the coordinator's trace_now_us origin. Feed the
  // result plus the coordinator's own dump_trace_json() to
  // merge_trace_docs for one Perfetto-loadable document. Also sets
  // `"trace":true` on the telemetry config line so exec-mode workers
  // (which start with tracing off) record spans at all.
  std::vector<ProcessTrace>* worker_traces = nullptr;
  // Non-null: filled with one WorkerHealth per slot at return.
  std::vector<WorkerHealth>* health = nullptr;
};

struct ShardOptions : PoolOptions {
  ShardOptions() { shards = 2; }

  // Fault injection, fork mode: worker_max_cells[i] is worker i's
  // WorkerOptions::max_cells (missing entries = 0). In exec mode the
  // equivalent is appending "--max-cells N" to worker_argv.
  std::vector<int> worker_max_cells;
  // Watchdog: a worker whose outstanding job has run for the job's own
  // wall_limit (m x wall_limit for a range of m schedules) PLUS this
  // grace is presumed hung, SIGKILLed, and its job is requeued. Scaling
  // with wall_limit means a cell the user allowed to run five minutes is
  // never killed after two. <= 0 disables.
  std::chrono::milliseconds watchdog_grace{30'000};
  // Churn hardening: how many times each worker SLOT may be respawned
  // after a write-off (0 = never, pre-respawn behavior). A respawned
  // worker inherits its slot's worker_max_cells quota.
  int max_respawns = 2;
  // First respawn of a slot waits this long; each further attempt
  // doubles the wait, capped at one second — so a crash-looping worker
  // cannot hot-spin the coordinator.
  std::chrono::milliseconds respawn_backoff{25};
  // With the pool fully drained (all workers dead, all respawn budgets
  // spent) and cells unserved: true = run the remainder in-process
  // (never lose cells), false = throw ProtocolError (fail cleanly, e.g.
  // when in-process execution would mask a systemic worker problem).
  bool fallback_in_process = true;
  // Report title ("" = derived from the first labeled cell, as
  // BatchRunner does — keeping sharded and in-process reports
  // byte-identical).
  std::string title;
  // Shutdown harvest: per-worker deadline for the final metrics/trace
  // exchange. Deadlines run CONCURRENTLY (shutdown is sent to every
  // live worker before any reply is awaited), so total harvest wall
  // time is ~max, not sum; a worker that misses its own deadline counts
  // one shard.snapshot_timeouts and starves nobody else.
  std::chrono::milliseconds snapshot_deadline{2000};
};

// Run one schedule range, `scratch` reused across calls (built, or
// rebuilt larger, on demand): the cell is rebuilt from the registry
// once, and its schedules run on the scratch's ProcessPool and
// arena-backed history. Keeps the step count of every schedule and the
// record of each violation (!ok() || raced()) and of schedule 0 — what
// explore's accounting reads. The shard worker's chunk runner, and the
// pool's in-process fallback for chunks. Never throws on a bad spec: a
// range that fails to rebuild yields one error record per schedule.
RangeOutcome run_schedule_range(const ScheduleRange& range,
                                std::unique_ptr<RunScratch>& scratch);

// Run `cells` across worker subprocesses and merge the results into a
// grid-ordered Report. Requires wire-serializable cells stamped with
// cell_index == position (exactly what Experiment::cells() produces);
// throws ProtocolError otherwise. Per-cell execution errors are captured
// in the records, not thrown.
Report run_sharded(const std::vector<ExperimentCell>& cells,
                   const ShardOptions& options);

// Run schedule ranges (a sharded explore's search) across worker
// subprocesses as chunk messages; returns one outcome per range, in
// range order. Same pool, fault handling and fallback as run_sharded.
// Throws ProtocolError for a range with count < 1.
//
// `stop_after` > 0 is explore's early stop: the caller reads outcomes
// in index order and stops at the stop_after-th violation (a kept
// record with !ok() || raced()). A range whose first schedule lies past
// the stop_after-th smallest violated index received so far is never
// dispatched and comes back with an empty outcome; ranges in flight are
// still harvested. 0 runs every range.
std::vector<RangeOutcome> run_sharded_ranges(
    const std::vector<ScheduleRange>& ranges, const ShardOptions& options,
    int stop_after = 0);

}  // namespace mpcn
