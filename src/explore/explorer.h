// Explorer: adversarial schedule search over one experiment cell, plus
// the delta-debugging counterexample shrinker.
//
// The paper's simulations are correct only across ALL interleavings; a
// seeded grid samples one schedule per cell. The explorer runs the SAME
// cell under many schedules — seeded-random sampling, PCT probabilistic
// priority schedules, or systematic bounded-DFS enumeration — and feeds
// every run through three oracles:
//
//   * the cell's task relation (RunRecord::ok — liveness + validity +
//     agreement, exactly what the batch runner already checks),
//   * optionally the happens-before race detector (src/analysis/) over
//     the run's direct-mode memory history, and
//   * optionally a SequentialSpec (src/history/linearizability.h) over
//     the HistoryRecorder events the direct-mode run produced.
//
// A run failing any oracle is a VIOLATION; its recorded grant trace
// is the counterexample. shrink() then minimizes it: ddmin over the
// grant list, replaying each candidate through the Scripted policy.
// Because scripted replay skips unmatched entries and falls back to the
// lowest runnable thread, every subsequence of a trace is a valid
// schedule, so the result is locally minimal — no single grant can be
// dropped without losing the failure — and is re-verified by one final
// replay.
//
// Accounting: every finished schedule passes through ONE accounting
// step, in schedule-index order — schedule and step totals, the first
// trace, spec skips, the explore.* counters, violation handling with
// shrink, and the max_violations stop. Three sources feed it:
//
//   * the PCT horizon probe, at index -1;
//   * the in-process claim loop: claimants take schedule indices from a
//     shared counter, and their outcomes are accounted in index order
//     after they finish. A serial search is one claimant on the calling
//     thread; bounded DFS (whose search tree spans runs) is always one;
//     `threads` = N runs N claimants, each owning its controller,
//     policy, history recorder and process-thread pool, so the report
//     is byte-identical to the serial one;
//   * the shard pool: `shards` ships the budget as about four schedule
//     ranges per worker over the subprocess wire protocol (src/dist/),
//     random/PCT only, since each schedule is a pure function of its
//     index. A worker answers a range with every schedule's step count
//     and the records of its violations and of schedule 0 — all that
//     accounting reads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dist/shard.h"
#include "src/experiment/experiment.h"
#include "src/explore/policy.h"
#include "src/explore/trace.h"
#include "src/history/linearizability.h"

namespace mpcn {

// Search strategy. Distinct from SchedulePolicyKind: bounded DFS is not
// a wire-serializable per-run policy (its state is the search tree), so
// it exists only here.
enum class ExplorePolicy { kSeededRandom, kPct, kBoundedDfs };

const char* to_string(ExplorePolicy policy);
ExplorePolicy explore_policy_from_string(const std::string& s);

// Pool and sidecar knobs come from PoolOptions: `shards` > 0 fans the
// schedule batch out over worker subprocesses through src/dist/
// (random/PCT only; requires a registry-named cell), and `progress`
// prints a stderr heartbeat of schedules completed, rate and ETA. The
// telemetry knobs are sidecar-only and apply to the shard pool.
struct ExploreOptions : PoolOptions {
  ExplorePolicy policy = ExplorePolicy::kPct;
  // Base seed: schedule i runs under seed + i (random/PCT).
  std::uint64_t seed = 1;
  // Max schedules to run; DFS may exhaust its bounded tree earlier.
  int budget = 200;
  // Stop after this many violations (0 = collect all within budget).
  int max_violations = 1;

  int pct_depth = 3;
  // 0 = probe: one seeded-random run measures a realistic horizon
  // (its step count) before the search fans out.
  std::uint64_t pct_horizon = 0;

  int dfs_preemption_bound = 2;
  std::size_t dfs_max_depth = 4096;

  // > 0: search the (schedule × crash) product. The cell runs under
  // CrashPlan::explored(crash_budget, crash_rate): at each grant the
  // policy also decides whether the granted process crashes, within this
  // budget of at most crash_budget process crashes. Bounded DFS
  // enumerates crash placements systematically (ignoring crash_rate);
  // random/PCT sample them at crash_rate per grant. 0 = schedule-only
  // (the cell's own crash plan, usually none, applies unchanged).
  int crash_budget = 0;
  double crash_rate = 0.1;

  bool shrink_violations = true;
  // Max judged candidates per violation (ShrinkOptions::max_replays). A
  // candidate identical to the one just judged counts without a rerun.
  int shrink_budget = 400;

  // Optional linearizability oracle over the run's recorded history
  // (direct-mode cells; in-process only). Histories longer than the
  // checker's 64-operation cap are skipped and counted.
  std::shared_ptr<const SequentialSpec> spec;

  // Third oracle: the happens-before race detector (src/analysis/).
  // Direct-mode cells only. Unlike the spec oracle this IS shardable —
  // the flag serializes with the cell and workers run the analysis
  // themselves, so sharded and in-process searches stay byte-identical.
  bool check_races = false;

  // Parallel in-process search: > 1 partitions the schedule budget by
  // index across this many claimant threads (random/PCT; bounded DFS
  // stays serial — its search tree spans runs). Results merge by
  // schedule index, so the report, violations, shrunk traces and exit
  // codes are byte-identical to the serial run. 0/1 = serial. Does not
  // combine with shards: shards > 0 with threads > 1 is rejected.
  int threads = 0;
};

struct ExploreViolation {
  int schedule_index = -1;  // which schedule of the search found it
  RunRecord record;         // the failing run (schedule fields populated)
  std::string why;          // oracle explanation
  // The race oracle flagged this run; record.race_reports holds the
  // reports. A run can be a race AND a verdict violation at once (the
  // racy_register torn read breaks validity); `race` lets the CLI exit
  // distinctly either way.
  bool race = false;
  // The failing run realized at least one crash (product searches): the
  // violation needed the fault adversary, not just the schedule — the
  // CLI exits distinctly on crash-only findings.
  bool crashed = false;
  ScheduleTrace trace;      // the counterexample schedule
  ScheduleTrace shrunk;     // == trace when shrinking is off or failed
  bool shrunk_verified = false;  // the shrunk trace re-failed on replay
  // Candidates the shrinker judged (ShrinkResult::replays), rerun or not.
  int shrink_replays = 0;
};

struct ExploreResult {
  ExplorePolicy policy = ExplorePolicy::kPct;
  int schedules = 0;          // search runs executed (probe excluded)
  bool exhausted = false;     // DFS enumerated its whole bounded tree
  std::uint64_t total_steps = 0;
  std::uint64_t pct_horizon = 0;      // horizon actually used
  std::uint64_t pruned_prefixes = 0;  // DFS visited-set hits
  int skipped_spec_checks = 0;  // histories over the 64-op checker cap
  // Observed grant trace of schedule #0 — the record side of the CLI's
  // --record / --replay byte-identity loop.
  ScheduleTrace first_trace;
  std::vector<ExploreViolation> violations;

  bool found() const { return !violations.empty(); }

  // Any violation flagged by the race oracle, and the total number of
  // race reports across all violations.
  bool race_found() const;
  int race_reports() const;

  // Any violation whose run realized a crash / every violation did. The
  // CLI uses crash_only() for its crash-violation exit code: when all
  // findings needed the fault adversary, schedule-only search at the
  // same budget would have stayed clean.
  bool crash_found() const;
  bool crash_only() const;

  Json to_json(bool include_traces = true) const;
  std::string summary() const;
};

// Run the search. `cell` is one executable cell (Experiment::cells());
// its schedule/policy fields are overridden per run. Throws
// ProtocolError on unusable configurations (sharded DFS, sharded spec
// oracle, shards with threads > 1, non-lock-step cells).
ExploreResult explore(const ExperimentCell& cell,
                      const ExploreOptions& options);

// Replay one explicit schedule against the cell (Scripted policy, trace
// recording on). The returned record's schedule_trace is the OBSERVED
// grant trace — byte-identical to `trace` when the run is deterministic
// and the trace was recorded from this cell, which is what the CI
// record -> replay `cmp` leg pins. A trace carrying crash marks replays
// them too: if the cell has no crash plan of its own, an explored plan
// sized to the trace's crash count is attached automatically.
RunRecord replay_trace(const ExperimentCell& cell,
                       const ScheduleTrace& trace);

struct ShrinkOptions {
  // Judged candidates allowed, rerun or not (the forced first and final
  // replays are exempt).
  int max_replays = 400;
  // Same optional oracle as ExploreOptions::spec: candidates count as
  // failing if the record fails OR the recorded history violates the
  // spec.
  std::shared_ptr<const SequentialSpec> spec;
  // Run the race oracle on every candidate replay.
  bool check_races = false;
  // With check_races: a candidate only counts as failing if it still
  // exhibits a RACE (not merely any violation), so shrinking a race
  // counterexample cannot drift onto a race-free failure mode.
  bool require_race = false;
  // A candidate only counts as failing if its run still realizes a
  // CRASH: shrinking a fault-injection counterexample cannot drift onto
  // a crash-free failure mode (the crash analogue of require_race).
  bool require_crash = false;
};

struct ShrinkResult {
  ScheduleTrace trace;   // locally-minimal failing trace
  // Candidates judged, including the first reproduction and the final
  // verification: what max_replays bounds and the report states.
  int replays = 0;
  // Candidates actually replayed (<= replays): a ddmin candidate equal to
  // the one just judged is counted in `replays` but not run again.
  // Sidecar only (explore.shrink_runs); no report carries it.
  int runs = 0;
  bool verified = false; // final replay of `trace` still failed
};

// ddmin the failing trace to a locally-minimal counterexample. Crash
// marks travel with their grants through the minimization, and a final
// pass tries to clear each surviving mark individually — so the result
// is minimal over grants AND crash points. A ddmin candidate that equals
// the one just judged is counted in `replays` without running again.
// If `failing` does not reproduce the failure on the first replay,
// returns it unchanged with verified = false.
ShrinkResult shrink(const ExperimentCell& cell, const ScheduleTrace& failing,
                    const ShrinkOptions& options = {});

}  // namespace mpcn
