#include "src/explore/explorer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "src/common/errors.h"
#include "src/dist/shard.h"
#include "src/history/history.h"
#include "src/obs/events.h"
#include "src/obs/progress.h"
#include "src/obs/spans.h"

namespace mpcn {

const char* to_string(ExplorePolicy policy) {
  switch (policy) {
    case ExplorePolicy::kSeededRandom:
      return "random";
    case ExplorePolicy::kPct:
      return "pct";
    case ExplorePolicy::kBoundedDfs:
      return "dfs";
  }
  return "?";
}

ExplorePolicy explore_policy_from_string(const std::string& s) {
  if (s == "random") return ExplorePolicy::kSeededRandom;
  if (s == "pct") return ExplorePolicy::kPct;
  if (s == "dfs") return ExplorePolicy::kBoundedDfs;
  throw ProtocolError("unknown explore policy '" + s +
                      "' (want random|pct|dfs)");
}

namespace {

// Explorer telemetry (src/obs/metrics.h). Pure sidecar: counters mirror
// the result accounting but never feed back into it, so instrumented
// and uninstrumented searches produce byte-identical reports.
Counter& m_schedules() {
  static Counter& c = metrics_registry().counter("explore.schedules");
  return c;
}
Counter& m_steps() {
  static Counter& c = metrics_registry().counter("explore.steps");
  return c;
}
Counter& m_violations() {
  static Counter& c = metrics_registry().counter("explore.violations");
  return c;
}
Counter& m_races() {
  static Counter& c = metrics_registry().counter("explore.races");
  return c;
}
Counter& m_crash_violations() {
  static Counter& c = metrics_registry().counter("explore.crash_violations");
  return c;
}
Counter& m_shrink_replays() {
  static Counter& c = metrics_registry().counter("explore.shrink_replays");
  return c;
}
Counter& m_shrink_runs() {
  static Counter& c = metrics_registry().counter("explore.shrink_runs");
  return c;
}
Counter& m_early_stops() {
  static Counter& c = metrics_registry().counter("explore.early_stops");
  return c;
}
Counter& m_spec_skips() {
  static Counter& c = metrics_registry().counter("explore.spec_skips");
  return c;
}

constexpr std::size_t kSpecOpCap = 64;  // linearizability checker limit

struct OracleVerdict {
  bool violated = false;
  bool spec_skipped = false;
  bool race = false;     // the race oracle flagged the run
  bool crashed = false;  // the run realized at least one crash
  std::string why;
};

bool any_crashed(const RunRecord& rec) {
  for (bool c : rec.crashed) {
    if (c) return true;
  }
  return false;
}

std::string race_why(const RunRecord& rec) {
  std::string why = "race: " + rec.race_reports.front().why;
  if (rec.race_reports.size() > 1) {
    why += " (+" + std::to_string(rec.race_reports.size() - 1) + " more)";
  }
  return why;
}

// The three oracles: the task/liveness verdict already folded into
// RunRecord::ok, the race-oracle verdict the cell runner stamped into
// the record, and (for clean runs with a recorded history) the
// sequential spec.
OracleVerdict judge(const RunRecord& rec,
                    const std::shared_ptr<const SequentialSpec>& spec,
                    const std::shared_ptr<HistoryRecorder>& history) {
  OracleVerdict v;
  v.race = rec.raced();
  v.crashed = any_crashed(rec);
  if (!rec.ok()) {
    v.violated = true;
    if (!rec.error.empty()) {
      v.why = "error: " + rec.error;
    } else if (rec.timed_out) {
      v.why = "timed out (liveness)";
    } else if (rec.validated && !rec.valid) {
      v.why = "task violation: " + rec.why;
    } else {
      v.why = "undecided correct process (liveness)";
    }
    // The torn read that breaks a task often IS the race; say both.
    if (v.race) v.why += "; " + race_why(rec);
    return v;
  }
  if (v.race) {
    v.violated = true;
    v.why = race_why(rec);
    return v;
  }
  if (spec && history) {
    const std::vector<Event> events = history->events();
    if (events.size() > kSpecOpCap) {
      v.spec_skipped = true;
    } else if (!is_linearizable(events, *spec)) {
      v.violated = true;
      v.why = "history violates sequential spec (" +
              std::to_string(events.size()) + " events)";
    }
  }
  return v;
}

// One search run: stamp the schedule, attach the observation hooks, run.
RunRecord run_schedule(const ExperimentCell& base, int index,
                       const ScheduleSpec& schedule,
                       std::shared_ptr<SchedulePolicy> policy,
                       std::shared_ptr<HistoryRecorder> history) {
  ExperimentCell cell = base;
  cell.cell_index = index;
  cell.schedule = schedule;
  cell.policy_override = std::move(policy);
  cell.record_schedule = true;
  cell.history = std::move(history);
  ScopedSpan span("explore.schedule", "explore");
  return run_cell(cell);
}

ScheduleSpec spec_for(const ExploreOptions& opts, std::uint64_t horizon,
                      int index) {
  ScheduleSpec s;
  s.seed = opts.seed + static_cast<std::uint64_t>(index);
  if (opts.policy == ExplorePolicy::kSeededRandom) {
    s.kind = SchedulePolicyKind::kSeededRandom;
  } else {
    s.kind = SchedulePolicyKind::kPct;
    s.pct_depth = opts.pct_depth;
    s.pct_horizon = horizon;
  }
  return s;
}

// One finished schedule, as the accounting step reads it. The record is
// kept only where accounting needs it: violations, and schedule 0 (whose
// grant trace becomes ExploreResult::first_trace).
struct Judged {
  bool ran = false;
  std::uint64_t steps = 0;
  OracleVerdict verdict;
  std::unique_ptr<RunRecord> rec;
};

Judged judged(int index, RunRecord rec, OracleVerdict verdict) {
  Judged o;
  o.ran = true;
  o.steps = rec.steps;
  if (verdict.violated || index == 0) {
    o.rec = std::make_unique<RunRecord>(std::move(rec));
  }
  o.verdict = std::move(verdict);
  return o;
}

}  // namespace

RunRecord replay_trace(const ExperimentCell& cell,
                       const ScheduleTrace& trace) {
  ExperimentCell replay = cell;
  ScheduleSpec s;
  s.kind = SchedulePolicyKind::kScripted;
  s.script = std::make_shared<const ScheduleTrace>(trace);
  replay.schedule = std::move(s);
  replay.policy_override = nullptr;
  replay.record_schedule = true;
  if (!trace.crashes.empty() && replay.options.crashes.is_none()) {
    // Crash marks need a director to land: attach an explored plan sized
    // to the recorded crashes so the trace replays from the report alone.
    replay.options.crashes = CrashPlan::explored(
        static_cast<int>(trace.crashes.size()));
  }
  return run_cell(replay);
}

namespace {

// Shrink works over (grant, crash-here) pairs so crash marks travel with
// their grants through every ddmin candidate.
using TraceEntry = std::pair<ThreadId, bool>;

std::vector<TraceEntry> to_entries(const ScheduleTrace& trace) {
  std::vector<TraceEntry> entries;
  entries.reserve(trace.grants.size());
  for (const ThreadId& t : trace.grants) entries.emplace_back(t, false);
  for (std::uint64_t c : trace.crashes) {
    entries[static_cast<std::size_t>(c)].second = true;
  }
  return entries;
}

ScheduleTrace to_trace(const std::vector<TraceEntry>& entries) {
  ScheduleTrace trace;
  trace.grants.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    trace.grants.push_back(entries[i].first);
    if (entries[i].second) {
      trace.crashes.push_back(static_cast<std::uint64_t>(i));
    }
  }
  return trace;
}

}  // namespace

ShrinkResult shrink(const ExperimentCell& cell, const ScheduleTrace& failing,
                    const ShrinkOptions& options) {
  ScopedSpan span("explore.shrink", "explore");
  ShrinkResult result;
  const bool want_history =
      options.spec && cell.mode == ExecutionMode::kDirect;

  // Every judged candidate spends one replay of the budget, whether it
  // runs or not; false once the budget is spent (unless forced).
  auto spend = [&](bool force) -> bool {
    if (!force && result.replays >= options.max_replays) return false;
    ++result.replays;
    return true;
  };
  auto fails = [&](const std::vector<TraceEntry>& entries,
                   bool force) -> bool {
    if (!spend(force)) return false;
    ++result.runs;
    ExperimentCell candidate = cell;
    candidate.policy_override = nullptr;
    ScheduleSpec s;
    s.kind = SchedulePolicyKind::kScripted;
    auto script = std::make_shared<const ScheduleTrace>(to_trace(entries));
    const bool has_crashes = !script->crashes.empty();
    s.script = std::move(script);
    candidate.schedule = std::move(s);
    candidate.record_schedule = false;
    candidate.check_races = options.check_races;
    if (has_crashes && candidate.options.crashes.is_none()) {
      // Crash marks need a director to land (same rule as replay_trace).
      candidate.options.crashes = CrashPlan::explored(
          static_cast<int>(candidate.schedule.script->crashes.size()));
    }
    auto history =
        want_history ? std::make_shared<HistoryRecorder>() : nullptr;
    candidate.history = history;
    const RunRecord rec = run_cell(candidate);
    const OracleVerdict verdict = judge(rec, options.spec, history);
    if (options.require_race && !verdict.race) return false;
    if (options.require_crash && !verdict.crashed) return false;
    return verdict.violated;
  };

  std::vector<TraceEntry> current = to_entries(failing);
  if (!fails(current, /*force=*/true)) {
    // Not reproducible through scripted replay: hand the trace back
    // unshrunk and say so.
    result.trace = failing;
    return result;
  }

  // ddmin (Zeller & Hildebrandt): remove chunks at doubling granularity
  // until no single-element removal preserves the failure.
  std::size_t n = 2;
  while (current.size() >= 2 && result.replays < options.max_replays) {
    const std::size_t chunk = (current.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < current.size(); start += chunk) {
      const std::size_t stop = std::min(start + chunk, current.size());
      // A full chunk equal, entry for entry, to the chunk before it
      // leaves the same sequence as the previous candidate, which was
      // just judged not failing (the loop breaks on the first that
      // fails). Lock-step traces are full of runs of one thread's grants,
      // so this is common: count the candidate, do not rerun it.
      if (start > 0 && stop - start == chunk &&
          std::equal(current.begin() + static_cast<long>(start - chunk),
                     current.begin() + static_cast<long>(start),
                     current.begin() + static_cast<long>(start))) {
        spend(/*force=*/false);
        continue;
      }
      std::vector<TraceEntry> candidate;
      candidate.reserve(current.size());
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<long>(start));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<long>(stop),
                       current.end());
      if (fails(candidate, /*force=*/false)) {
        current = std::move(candidate);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= current.size()) break;  // granularity 1: locally minimal
      n = std::min(n * 2, current.size());
    }
  }

  // Crash-point minimization: try clearing each surviving crash mark
  // individually (keeping its grant), so the counterexample carries only
  // the crashes the failure actually needs.
  for (std::size_t i = 0;
       i < current.size() && result.replays < options.max_replays; ++i) {
    if (!current[i].second) continue;
    current[i].second = false;
    if (!fails(current, /*force=*/false)) current[i].second = true;
  }

  result.trace = to_trace(current);
  // The shrinker's guarantee: the artifact it hands back has just been
  // seen failing, one final replay, budget-exempt.
  result.verified = fails(current, /*force=*/true);
  return result;
}

ExploreResult explore(const ExperimentCell& cell,
                      const ExploreOptions& options) {
  if (cell.options.mode != SchedulerMode::kLockstep) {
    throw ProtocolError(
        "explore needs a lock-step cell: free-mode schedules are not "
        "controllable");
  }
  if (options.budget < 1) {
    throw ProtocolError("explore needs budget >= 1");
  }
  if (options.crash_budget < 0) {
    throw ProtocolError("explore needs crash-budget >= 0");
  }
  if (options.crash_budget > 0 &&
      (options.crash_rate < 0.0 || options.crash_rate > 1.0)) {
    throw ProtocolError("explore needs crash-rate in [0, 1]");
  }
  if (options.shards > 0) {
    if (options.policy == ExplorePolicy::kBoundedDfs) {
      throw ProtocolError(
          "bounded-DFS search carries its tree across runs and cannot "
          "shard; use --policy random|pct for distributed exploration");
    }
    if (options.spec) {
      throw ProtocolError(
          "the sequential-spec oracle observes in-process history and "
          "cannot shard");
    }
    if (options.threads > 1) {
      throw ProtocolError(
          "threads > 1 does not combine with shards: each shard worker "
          "subprocess runs its schedules one at a time");
    }
  }
  if (options.check_races && cell.mode != ExecutionMode::kDirect) {
    throw ProtocolError(
        "the race oracle observes direct-mode memory histories; use a "
        "direct cell (mpcn explore --mode direct)");
  }

  ExploreResult result;
  result.policy = options.policy;

  // Every search, probe, shard and shrink run flows from this cell, so
  // the race-oracle flag rides along everywhere uniformly.
  ExperimentCell base = cell;
  base.check_races = options.check_races;
  // Product search: every run gets the explored plan, so the schedule
  // policy decides crashes at each grant within this budget. The plan is
  // part of the cell, so it ships over the shard wire unchanged and the
  // sharded search stays byte-identical to the in-process one.
  if (options.crash_budget > 0) {
    base.options.crashes =
        CrashPlan::explored(options.crash_budget, options.crash_rate);
  }

  const bool want_history =
      options.spec != nullptr && cell.mode == ExecutionMode::kDirect;
  // Runs that get the pooled recorder attached: the spec oracle reads
  // its events, and a race-checked run would otherwise allocate a fresh
  // recorder inside run_cell every schedule.
  const bool pass_history = want_history || options.check_races;

  const int processes = std::max(1, static_cast<int>(base.inputs.size()));
  // Bounded DFS carries one search tree across runs, so it always runs
  // as a single claimant; random/PCT schedules are pure functions of the
  // index and parallelize freely.
  const int claimants = options.policy != ExplorePolicy::kBoundedDfs &&
                                options.threads > 1
                            ? std::min(options.threads, options.budget)
                            : 1;
  // One scratch per claimant, built on first use. Claimant 0 runs on
  // this thread, and its scratch also serves the PCT probe and the
  // shrinker. pooled(w) is `base` on claimant w's process pool; `base`
  // itself stays pool-free, because the shard pool ships copies of it
  // over the wire, which rejects cells carrying live pools.
  std::vector<std::unique_ptr<RunScratch>> scratch(
      static_cast<std::size_t>(claimants));
  auto pooled = [&](int w) {
    std::unique_ptr<RunScratch>& s = scratch[static_cast<std::size_t>(w)];
    if (!s) s = std::make_unique<RunScratch>(processes);
    ExperimentCell c = base;
    c.options.process_pool = &s->pool;
    return c;
  };

  // Rewind a claimant's scratch for the next schedule and hand out its
  // recorder.
  auto scratch_history =
      [pass_history](RunScratch& s) -> std::shared_ptr<HistoryRecorder> {
    return pass_history ? s.next_history() : nullptr;
  };

  // The accounting step, written once. Every source hands it finished
  // schedules in index order on this thread; it returns true when the
  // search must stop (max_violations reached). Shrinking happens here,
  // after the order of acceptance is fixed — shrink is a pure function
  // of (cell, trace, options), so where it runs cannot change a byte.
  auto account = [&](int index, Judged o) -> bool {
    if (index >= 0) {  // the probe is not a search schedule
      ++result.schedules;
      m_schedules().add();
    }
    result.total_steps += o.steps;
    m_steps().add(o.steps);
    if (index == 0 && o.rec && o.rec->schedule_trace) {
      result.first_trace = *o.rec->schedule_trace;
    }
    const OracleVerdict& verdict = o.verdict;
    if (verdict.spec_skipped) {
      ++result.skipped_spec_checks;
      m_spec_skips().add();
    }
    if (!verdict.violated) return false;

    ExploreViolation v;
    v.schedule_index = index;
    v.why = verdict.why;
    v.race = verdict.race;
    v.crashed = verdict.crashed;
    m_violations().add();
    if (v.race) m_races().add();
    if (v.crashed) m_crash_violations().add();
    // Flight recorder: violations are the events a post-mortem reader
    // scans for first. One event per oracle dimension that fired.
    log_event("violation_found",
              Json::object()
                  .set("schedule", static_cast<std::int64_t>(index))
                  .set("why", v.why));
    if (v.race) {
      log_event("race_found", Json::object().set(
                                  "schedule", static_cast<std::int64_t>(index)));
    }
    if (v.crashed) {
      log_event("crash_violation_found",
                Json::object().set("schedule",
                                   static_cast<std::int64_t>(index)));
    }
    if (o.rec->schedule_trace) v.trace = *o.rec->schedule_trace;
    v.record = std::move(*o.rec);
    if (options.shrink_violations && !v.trace.empty()) {
      log_event("shrink_begin",
                Json::object()
                    .set("schedule", static_cast<std::int64_t>(index))
                    .set("trace_len",
                         static_cast<std::int64_t>(v.trace.size())));
      ShrinkOptions so;
      so.max_replays = options.shrink_budget;
      so.spec = options.spec;
      so.check_races = options.check_races;
      so.require_race = v.race;
      so.require_crash = v.crashed;
      ShrinkResult sr = shrink(pooled(0), v.trace, so);
      v.shrunk = std::move(sr.trace);
      v.shrunk_verified = sr.verified;
      v.shrink_replays = sr.replays;
      m_shrink_replays().add(static_cast<std::uint64_t>(sr.replays));
      m_shrink_runs().add(static_cast<std::uint64_t>(sr.runs));
      log_event("shrink_end",
                Json::object()
                    .set("schedule", static_cast<std::int64_t>(index))
                    .set("shrunk_len",
                         static_cast<std::int64_t>(v.shrunk.size()))
                    .set("replays",
                         static_cast<std::int64_t>(v.shrink_replays))
                    .set("verified", v.shrunk_verified));
    } else {
      v.shrunk = v.trace;
    }
    result.violations.push_back(std::move(v));
    const bool stop = options.max_violations > 0 &&
                      static_cast<int>(result.violations.size()) >=
                          options.max_violations;
    if (stop) m_early_stops().add();
    return stop;
  };

  // ---- source 1: the PCT horizon probe ------------------------------
  // Probe the cell once under its own seed to learn a realistic schedule
  // length (the declared step limit is usually orders of magnitude
  // larger, which would starve the change points). The probe is a real
  // run: if the bug shows under the plain seeded schedule at the base
  // seed, that IS a violation (schedule_index -1), not a measurement to
  // discard.
  std::uint64_t horizon = options.pct_horizon;
  if (options.policy == ExplorePolicy::kPct && horizon == 0) {
    ScheduleSpec probe;
    probe.kind = SchedulePolicyKind::kSeededRandom;
    probe.seed = options.seed;
    const ExperimentCell probe_cell = pooled(0);
    auto history = scratch_history(*scratch[0]);
    RunRecord rec = run_schedule(probe_cell, -1, probe, nullptr, history);
    horizon = std::max<std::uint64_t>(rec.steps, 8);
    result.pct_horizon = horizon;
    OracleVerdict v = judge(rec, options.spec, history);
    if (account(-1, judged(-1, std::move(rec), std::move(v)))) {
      return result;
    }
  }
  result.pct_horizon = horizon;
  // Violations left to find before the stop (the probe may hold one); 0
  // collects all.
  const int quota =
      options.max_violations > 0
          ? options.max_violations - static_cast<int>(result.violations.size())
          : 0;

  // ---- source 2: the shard pool -------------------------------------
  // The budget ships as schedule ranges, about four per worker so the
  // load balances and a requeue loses at most about a quarter of one
  // worker's share. Workers answer each range with every schedule's
  // steps and only the records accounting keeps (violations and
  // schedule 0); accounting walks them in index order and stops where
  // the in-process search would have. With a max_violations stop, the
  // pool skips the ranges that start past it (the claim loop's cutoff
  // rule below), so they come back empty and are never reached.
  if (options.shards > 0) {
    const std::int64_t ranges_wanted =
        4 * static_cast<std::int64_t>(options.shards);
    const int length = static_cast<int>(
        (options.budget + ranges_wanted - 1) / ranges_wanted);
    std::vector<ScheduleRange> ranges;
    for (int first = 0; first < options.budget;) {
      const int count = std::min(length, options.budget - first);
      ExperimentCell c = base;
      c.cell_index = first;
      c.schedule = spec_for(options, horizon, first);
      c.policy_override = nullptr;
      c.record_schedule = true;
      c.history = nullptr;
      ranges.push_back(ScheduleRange{CellSpec::from_cell(c), count});
      first += count;
    }
    ShardOptions shard;
    static_cast<PoolOptions&>(shard) = options;
    // Fork the workers from a coordinator with no pool threads alive;
    // shrinking rebuilds the probe's scratch afterwards.
    scratch[0].reset();
    std::vector<RangeOutcome> outcomes =
        run_sharded_ranges(ranges, shard, quota);
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      RangeOutcome& out = outcomes[k];
      if (out.steps.size() != static_cast<std::size_t>(ranges[k].count)) {
        throw ProtocolError("explore: the shard pool skipped range " +
                            std::to_string(k) + " before the stop index");
      }
      auto kept = out.records.begin();
      for (std::size_t j = 0; j < out.steps.size(); ++j) {
        const int index = ranges[k].base.cell_index + static_cast<int>(j);
        Judged o;
        o.ran = true;
        o.steps = out.steps[j];
        if (kept != out.records.end() && kept->cell_index == index) {
          OracleVerdict v = judge(*kept, nullptr, nullptr);
          o = judged(index, std::move(*kept), std::move(v));
          ++kept;
        }
        if (account(index, std::move(o))) return result;
      }
    }
    return result;
  }

  // ---- source 3: the in-process claim loop --------------------------
  // Claimants take schedule indices from a shared counter and park each
  // outcome in its index's slot; accounting then walks the slots IN
  // INDEX ORDER, so the report is the same for one claimant or many
  // (pinned by explore_parallel_test and tests/smoke).
  //
  // Early stop: accounting stops at the max_violations-th violation.
  // Claimants maintain a conservative upper bound on that index —
  // `cutoff`, the quota-th smallest violated index seen so far — and
  // stop claiming past it. The bound only ever decreases and never
  // drops below the true stop index, so every index accounting visits
  // is guaranteed to complete, while indices past the final cutoff are
  // at worst wasted work, never missing work. A single claimant stops
  // exactly at the stop index.
  std::shared_ptr<BoundedDfsPolicy> dfs;
  if (options.policy == ExplorePolicy::kBoundedDfs) {
    dfs = std::make_shared<BoundedDfsPolicy>(options.dfs_preemption_bound,
                                             options.dfs_max_depth);
  }
  std::vector<Judged> slots(static_cast<std::size_t>(options.budget));
  std::atomic<int> next{0};
  std::atomic<int> cutoff{options.budget - 1};
  std::mutex found_m;
  std::vector<int> violated_indices;  // sorted ascending

  auto note_violation = [&](int index) {
    if (quota <= 0) return;  // collect-all: no early stop
    std::lock_guard<std::mutex> lk(found_m);
    violated_indices.insert(
        std::upper_bound(violated_indices.begin(), violated_indices.end(),
                         index),
        index);
    if (static_cast<int>(violated_indices.size()) >= quota) {
      const int bound = violated_indices[static_cast<std::size_t>(quota - 1)];
      int cur = cutoff.load();
      while (bound < cur && !cutoff.compare_exchange_weak(cur, bound)) {
      }
    }
  };

  ProgressMeter heartbeat(options.progress, "explore", "schedules",
                          options.budget);
  std::mutex error_m;
  std::exception_ptr claim_error;
  auto claim = [&](int w) {
    try {
      const ExperimentCell claimant_base = pooled(w);
      RunScratch& s = *scratch[static_cast<std::size_t>(w)];
      while (true) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= options.budget ||
            i > cutoff.load(std::memory_order_relaxed)) {
          break;
        }
        ScheduleSpec schedule;  // kDefault under DFS (the override wins)
        if (!dfs) {
          schedule = spec_for(options, horizon, i);
        } else if (i > 0 && !dfs->advance()) {
          result.exhausted = true;  // DFS: the only claimant
          break;
        }
        auto history = scratch_history(s);
        RunRecord rec = run_schedule(claimant_base, i, schedule, dfs, history);
        OracleVerdict v = judge(rec, options.spec, history);
        const bool violated = v.violated;
        slots[static_cast<std::size_t>(i)] =
            judged(i, std::move(rec), std::move(v));
        heartbeat.tick();
        if (violated) note_violation(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_m);
      if (!claim_error) claim_error = std::current_exception();
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(claimants - 1));
  for (int w = 1; w < claimants; ++w) helpers.emplace_back(claim, w);
  claim(0);
  for (std::thread& t : helpers) t.join();
  if (claim_error) std::rethrow_exception(claim_error);

  for (int i = 0; i < options.budget; ++i) {
    Judged& o = slots[static_cast<std::size_t>(i)];
    if (!o.ran) break;  // past the stop index, or the DFS tree ran out
    if (account(i, std::move(o))) break;
  }
  if (dfs) {
    result.pruned_prefixes = dfs->pruned_prefixes();
    result.exhausted = result.exhausted || dfs->exhausted();
  }
  return result;
}

bool ExploreResult::race_found() const {
  for (const ExploreViolation& v : violations) {
    if (v.race) return true;
  }
  return false;
}

int ExploreResult::race_reports() const {
  int n = 0;
  for (const ExploreViolation& v : violations) {
    n += static_cast<int>(v.record.race_reports.size());
  }
  return n;
}

bool ExploreResult::crash_found() const {
  for (const ExploreViolation& v : violations) {
    if (v.crashed) return true;
  }
  return false;
}

bool ExploreResult::crash_only() const {
  if (violations.empty()) return false;
  for (const ExploreViolation& v : violations) {
    if (!v.crashed) return false;
  }
  return true;
}

Json ExploreResult::to_json(bool include_traces) const {
  Json j = Json::object();
  j.set("policy", to_string(policy))
      .set("schedules", schedules)
      .set("exhausted", exhausted)
      .set("found", found())
      .set("violations", static_cast<std::int64_t>(violations.size()))
      .set("race_found", race_found())
      .set("race_reports", race_reports())
      .set("crash_found", crash_found())
      .set("crash_only", crash_only())
      .set("total_steps", static_cast<std::int64_t>(total_steps))
      .set("pct_horizon", static_cast<std::int64_t>(pct_horizon))
      .set("pruned_prefixes", static_cast<std::int64_t>(pruned_prefixes))
      .set("skipped_spec_checks", skipped_spec_checks);
  Json arr = Json::array();
  for (const ExploreViolation& v : violations) {
    Json vj = Json::object();
    vj.set("schedule_index", v.schedule_index)
        .set("why", v.why)
        .set("race", v.race)
        .set("crashed", v.crashed)
        .set("races", static_cast<std::int64_t>(v.record.race_reports.size()))
        .set("trace_len", static_cast<std::int64_t>(v.trace.size()))
        .set("trace_digest", v.trace.digest())
        .set("shrunk_len", static_cast<std::int64_t>(v.shrunk.size()))
        .set("shrunk_digest", v.shrunk.digest())
        .set("shrunk_verified", v.shrunk_verified)
        .set("shrink_replays", v.shrink_replays);
    if (include_traces) {
      vj.set("trace", v.trace.to_json())
          .set("shrunk_trace", v.shrunk.to_json());
    }
    vj.set("record", v.record.to_json(/*include_timing=*/false));
    arr.push(std::move(vj));
  }
  j.set("violation_details", std::move(arr));
  return j;
}

std::string ExploreResult::summary() const {
  std::string s = std::string(to_string(policy)) + ": " +
                  std::to_string(schedules) + " schedule(s)";
  if (exhausted) s += " (exhausted)";
  if (violations.empty()) {
    s += ", no violations";
    return s;
  }
  s += ", " + std::to_string(violations.size()) + " violation(s)";
  if (race_found()) {
    s += ", " + std::to_string(race_reports()) + " race report(s)";
  }
  if (crash_found()) {
    s += crash_only() ? ", all crash-dependent" : ", some crash-dependent";
  }
  const ExploreViolation& v = violations.front();
  s += "; first: " + v.why + ", trace " + std::to_string(v.trace.size()) +
       " -> " + std::to_string(v.shrunk.size()) + " grants" +
       (v.shrunk_verified ? " (verified)" : " (UNVERIFIED)");
  return s;
}

}  // namespace mpcn
