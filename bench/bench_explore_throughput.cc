// EXPLORE-1 — schedule-explorer throughput and replay overhead.
//
// Part 1: schedules/second per search policy (random / pct / dfs) on the
// racy_register exhibit cell — the end-to-end cost of one explored
// schedule: cell setup, a full lock-step run under the policy, trace
// capture and the oracle verdict. Shrinking is off and violations do not
// stop the search, so every row runs its whole budget.
//
// Random and pct additionally sweep the in-process `threads` axis
// (serial / 2 / 8) of the parallel engine; dfs is serial-only by design.
// On a single hardware core the threaded rows mostly price the engine's
// coordination overhead — the byte-identity contract is what makes the
// axis safe to turn on where cores exist.
//
// Part 2: replay overhead — the same cell run N times natively (builtin
// seeded schedule) vs N scripted replays of a recorded trace, both with
// trace capture on so the ratio isolates the scripted-policy cost. The
// ratio is the price of record/replay debugging on top of a plain seeded
// run and is asserted <= 1.05x at real budgets.
//
// Part 3: streaming-telemetry overhead — a sharded search over the
// churn cell run with the worker heartbeat off vs armed (25 ms interval
// + a beat per shipped schedule range, the CLI's --telemetry-ms path).
// The sidecar promise is that telemetry never changes report bytes;
// this part prices the cost side of that promise and asserts <= 1.05x at
// real budgets, alongside the derived absolute telemetry cost per
// schedule (beat compose + wire + coordinator fold, spread over the
// schedules) so a heartbeat-path regression cannot hide behind a heavy
// cell. The JSON row keeps its `beat_cost_us` key for that figure. The gated ratio is CPU time (user+sys, process +
// reaped workers): on the 1-core reference host wall clock carries a
// fat scheduler-noise tail that no best-of-N damps, while CPU time
// measures the work itself. Off and on run back to back each rep and
// the gate takes the MEDIAN of the paired differences, cancelling the
// common-mode drift between reps. Wall is still reported for context.
//
// Part 4: shrink cost — a racy_register 3,0,1 PCT race search collects
// every violation with shrinking off, then shrink() minimizes each one
// on a pooled cell, exactly as explore() would. The row reports the
// candidates judged (`shrink_replays`, what the report states and the
// budget bounds), the candidates actually replayed (`shrink_runs`: a
// ddmin candidate equal to the one just judged is not rerun), and the
// wall time per violation.
//
// `--budget N` scales all parts (default 300; CI smoke uses a handful).
// `--json[=path]` writes the machine-readable rows (default
// BENCH_explore_throughput.json).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/runtime/process_pool.h"

using namespace mpcn;
using namespace mpcn::benchutil;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Cumulative user+sys CPU of this process plus every reaped child (the
// forked shard workers). Deltas of this are preemption-immune where
// wall clock on a busy 1-core host is not.
double process_tree_cpu_ms() {
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0;
  };
  struct rusage self;
  struct rusage children;
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return ms(self.ru_utime) + ms(self.ru_stime) + ms(children.ru_utime) +
         ms(children.ru_stime);
}

ExperimentCell exhibit_cell(int n) {
  Experiment e = Experiment::named("racy_register", ModelSpec{n, 0, 1});
  e.direct().seed(1).inputs_fn([](const ModelSpec& m) {
    std::vector<Value> in;
    for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
    return in;
  });
  return e.cells().front();
}

}  // namespace

int main(int argc, char** argv) {
  int budget = 300;
  if (const auto v = flag_value(argc, argv, "budget")) {
    budget = static_cast<int>(parse_u64(*v));
  }

  Json rows = Json::array();
  bool all_ok = true;

  std::printf("== Explore throughput: racy_register 2,0,1, budget %d\n",
              budget);
  std::printf("%-8s %8s %10s %12s %14s %12s\n", "policy", "threads",
              "wall_ms", "schedules", "sched_per_sec", "violations");
  const ExperimentCell cell = exhibit_cell(2);
  for (ExplorePolicy policy :
       {ExplorePolicy::kSeededRandom, ExplorePolicy::kPct,
        ExplorePolicy::kBoundedDfs}) {
    const bool serial_only = policy == ExplorePolicy::kBoundedDfs;
    for (int threads : {0, 2, 8}) {
      if (serial_only && threads != 0) continue;
      ExploreOptions opts;
      opts.policy = policy;
      opts.seed = 1;
      opts.budget = budget;
      opts.threads = threads;
      opts.max_violations = 0;      // run the whole budget
      opts.shrink_violations = false;
      const auto start = std::chrono::steady_clock::now();
      const ExploreResult result = explore(cell, opts);
      const double wall = ms_since(start);
      const double per_sec =
          wall > 0.0 ? result.schedules * 1000.0 / wall : 0.0;
      std::printf("%-8s %8d %10.1f %12d %14.0f %12zu%s\n", to_string(policy),
                  threads, wall, result.schedules, per_sec,
                  result.violations.size(),
                  result.exhausted ? " (exhausted)" : "");
      // Serial rows keep their historical names so the trajectory stays
      // comparable; threaded rows carry a suffix.
      std::string name = std::string("explore_") + to_string(policy);
      if (threads > 0) name += "_t" + std::to_string(threads);
      Json row = Json::object();
      row.set("name", std::move(name))
          .set("threads", threads)
          .set("schedules", result.schedules)
          .set("wall_ms", wall)
          .set("schedules_per_second", per_sec)
          .set("violations",
               static_cast<std::int64_t>(result.violations.size()))
          .set("exhausted", result.exhausted)
          .set("total_steps", static_cast<std::int64_t>(result.total_steps));
      rows.push(std::move(row));
      // The exhibit must stay findable: pct and dfs see it, random does not
      // within this seed/budget (the needle the explorer exists for).
      if (policy != ExplorePolicy::kSeededRandom &&
          result.violations.empty() && budget >= 100) {
        std::fprintf(stderr, "%s found no violation — exhibit regressed?\n",
                     to_string(policy));
        all_ok = false;
      }
    }
  }

  // ---- Part 2: replay overhead --------------------------------------
  Experiment churn = Experiment::named("snapshot_churn", ModelSpec{3, 0, 1});
  churn.direct().seed(1).inputs_fn([](const ModelSpec& m) {
    std::vector<Value> in;
    for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
    return in;
  });
  ExperimentCell churn_cell = churn.cells().front();
  ExperimentCell recorded_cell = churn_cell;
  recorded_cell.record_schedule = true;
  const RunRecord recorded = run_cell(recorded_cell);
  if (!recorded.schedule_trace) {
    std::fprintf(stderr, "recording produced no trace\n");
    return 1;
  }

  const int reps = budget;
  // replay_trace records the replayed schedule (the digest check depends
  // on it), so the native side records too — otherwise the ratio charges
  // trace capture to the scripted policy. Native and replay run in
  // INTERLEAVED chunks so slow background drift taxes both sides alike,
  // and a failing attempt is re-measured up to twice before it counts:
  // on the 1-core reference host a burst of system activity can land on
  // one side of a ~100 ms comparison, and a genuine hot-path regression
  // fails every attempt while noise rarely strikes three times.
  double native_ms = 0.0, replay_ms = 0.0, overhead = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    native_ms = replay_ms = 0.0;
    const int chunk = reps >= 10 ? reps / 10 : reps;
    for (int done_reps = 0; done_reps < reps;) {
      const int n = std::min(chunk, reps - done_reps);
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < n; ++i) {
        const RunRecord r = run_cell(recorded_cell);
        if (!r.ok() || r.schedule_digest != recorded.schedule_digest) {
          all_ok = false;
        }
      }
      native_ms += ms_since(start);
      start = std::chrono::steady_clock::now();
      for (int i = 0; i < n; ++i) {
        const RunRecord r = replay_trace(churn_cell, *recorded.schedule_trace);
        if (!r.ok() || r.schedule_digest != recorded.schedule_digest) {
          all_ok = false;
        }
      }
      replay_ms += ms_since(start);
      done_reps += n;
    }
    overhead = native_ms > 0.0 ? replay_ms / native_ms : 0.0;
    if (budget < 100 || overhead <= 1.05) break;
  }

  std::printf("\n== Replay overhead: snapshot_churn 3,0,1, %d reps\n", reps);
  std::printf("native %.1f ms, scripted replay %.1f ms  (%.2fx)\n",
              native_ms, replay_ms, overhead);
  // The cursor-based ScriptedPolicy makes replay a near-free debugging
  // mode; hold the line at small budgets too noisy to judge.
  if (budget >= 100 && overhead > 1.05) {
    std::fprintf(stderr,
                 "replay overhead %.2fx exceeds the 1.05x budget — "
                 "ScriptedPolicy hot path regressed?\n",
                 overhead);
    all_ok = false;
  }
  Json replay_row = Json::object();
  replay_row.set("name", "replay_overhead")
      .set("reps", reps)
      .set("native_wall_ms", native_ms)
      .set("replay_wall_ms", replay_ms)
      .set("replay_overhead_x", overhead)
      .set("trace_len", static_cast<std::int64_t>(
                            recorded.schedule_trace->size()));
  rows.push(std::move(replay_row));

  // ---- Part 3: streaming-telemetry overhead -------------------------
  // Priced on the churn cell (Part 2's workload, ~0.3 ms/schedule): the
  // telemetry cost is a fixed tax per job, so the ratio only means
  // something against a representative cell, not the repo's smallest.
  const int telemetry_reps = 9;
  struct Measure {
    double wall_ms;
    double cpu_ms;
  };
  auto sharded_run = [&](bool telemetry) {
    ExploreOptions opts;
    opts.policy = ExplorePolicy::kPct;
    opts.seed = 1;
    opts.budget = budget;
    opts.max_violations = 0;
    opts.shrink_violations = false;
    opts.shards = 2;
    std::vector<WorkerHealth> health;
    if (telemetry) {
      opts.telemetry_interval = std::chrono::milliseconds(25);
      opts.health = &health;
    }
    const double cpu0 = process_tree_cpu_ms();
    const auto start = std::chrono::steady_clock::now();
    const ExploreResult result = explore(churn_cell, opts);
    const double wall = ms_since(start);
    // Workers are reaped before explore() returns, so RUSAGE_CHILDREN
    // has folded them in by here.
    const double cpu = process_tree_cpu_ms() - cpu0;
    if (result.schedules != budget) all_ok = false;
    if (telemetry) {
      // The run must actually have streamed: every slot heartbeats at
      // least once (arm-beat), or the "overhead" measured nothing.
      for (const WorkerHealth& h : health) {
        if (h.heartbeats < 1) all_ok = false;
      }
    }
    return Measure{wall, cpu};
  };
  sharded_run(false);  // warmup: fork/exec paths, page cache
  // Each rep runs plain and streaming back to back, and the gated
  // quantity is the MEDIAN of the per-rep paired CPU differences:
  // pairing cancels the common-mode drift (page-cache state, background
  // load) that dominates cross-rep minima on a single core, and the
  // median shrugs off a rep that got preempted outright.
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  Measure plain{0.0, 0.0}, streamed{0.0, 0.0};
  double telemetry_overhead = 0.0, beat_cost_us = 0.0;
  // Like Part 2: a failing attempt is re-measured up to twice. The
  // workload's own CPU cost varies run to run (park/wake counts are
  // scheduling-dependent) by the same few ms the 1.05x gate leaves as
  // margin, so a single unlucky attempt must not be a verdict — while a
  // real heartbeat-path regression fails all three.
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::vector<double> plain_cpu, cpu_diff;
    for (int i = 0; i < telemetry_reps; ++i) {
      // Alternate which side of the pair runs first: second runs can
      // pay a persistent tax (page-cache / allocator state), and
      // alternation makes that bias cancel in the median instead of
      // accumulating.
      const bool plain_first = (i % 2) == 0;
      const Measure a = sharded_run(!plain_first);
      const Measure b = sharded_run(plain_first);
      const Measure p = plain_first ? a : b;
      const Measure t = plain_first ? b : a;
      plain_cpu.push_back(p.cpu_ms);
      cpu_diff.push_back(t.cpu_ms - p.cpu_ms);
      if (i == 0 || p.wall_ms < plain.wall_ms) plain.wall_ms = p.wall_ms;
      if (i == 0 || t.wall_ms < streamed.wall_ms) {
        streamed.wall_ms = t.wall_ms;
      }
    }
    plain.cpu_ms = median(plain_cpu);
    streamed.cpu_ms = plain.cpu_ms + median(cpu_diff);
    telemetry_overhead =
        plain.cpu_ms > 0.0 ? streamed.cpu_ms / plain.cpu_ms : 0.0;
    // The CPU delta over the budget is the telemetry cost per schedule:
    // one after-job beat per shipped range plus the 25 ms interval
    // beats (worker compose + wire + coordinator parse/fold), spread
    // over the schedules the search ran.
    beat_cost_us = budget > 0 ? median(cpu_diff) * 1000.0 / budget : 0.0;
    if (budget < 100 ||
        (telemetry_overhead <= 1.05 && beat_cost_us <= 50.0)) {
      break;
    }
  }
  std::printf("\n== Telemetry streaming overhead: sharded pct on churn "
              "cell, budget %d, median of %d paired reps\n",
              budget, telemetry_reps);
  std::printf("cpu: plain %.1f ms, streaming %.1f ms  (%.2fx, %.1f "
              "us/schedule)"
              "   [best wall %.1f vs %.1f ms]\n",
              plain.cpu_ms, streamed.cpu_ms, telemetry_overhead,
              beat_cost_us, plain.wall_ms, streamed.wall_ms);
  if (budget >= 100 && telemetry_overhead > 1.05) {
    std::fprintf(stderr,
                 "telemetry streaming overhead %.2fx exceeds the 1.05x "
                 "budget — heartbeat path regressed?\n",
                 telemetry_overhead);
    all_ok = false;
  }
  if (budget >= 100 && beat_cost_us > 50.0) {
    std::fprintf(stderr,
                 "telemetry cost %.1f us per schedule exceeds the 50 us "
                 "budget — beat compose/fold path regressed?\n",
                 beat_cost_us);
    all_ok = false;
  }
  Json telemetry_row = Json::object();
  telemetry_row.set("name", "telemetry_overhead")
      .set("reps", telemetry_reps)
      .set("plain_cpu_ms", plain.cpu_ms)
      .set("telemetry_cpu_ms", streamed.cpu_ms)
      .set("plain_wall_ms", plain.wall_ms)
      .set("telemetry_wall_ms", streamed.wall_ms)
      .set("telemetry_overhead_x", telemetry_overhead)
      .set("beat_cost_us", beat_cost_us);
  rows.push(std::move(telemetry_row));

  // ---- Part 4: shrink cost ------------------------------------------
  {
    ExperimentCell racy = exhibit_cell(3);
    ExploreOptions opts;
    opts.policy = ExplorePolicy::kPct;
    opts.seed = 1;
    opts.budget = budget;
    opts.max_violations = 0;
    opts.check_races = true;
    opts.shrink_violations = false;
    const ExploreResult search = explore(racy, opts);
    ProcessPool pool(3);
    racy.options.process_pool = &pool;
    std::int64_t replays = 0, runs = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const ExploreViolation& v : search.violations) {
      ShrinkOptions so;
      so.check_races = true;
      so.require_race = v.race;
      so.require_crash = v.crashed;
      const ShrinkResult sr = shrink(racy, v.trace, so);
      replays += sr.replays;
      runs += sr.runs;
      if (!sr.verified || sr.runs > sr.replays) all_ok = false;
    }
    const double wall = ms_since(start);
    const std::size_t found = search.violations.size();
    const double per_violation = found > 0 ? wall / found : 0.0;
    std::printf("\n== Shrink cost: racy_register 3,0,1 pct races, budget "
                "%d\n",
                budget);
    std::printf("%zu violations, %lld candidates judged, %lld replayed, "
                "%.2f ms/violation\n",
                found, static_cast<long long>(replays),
                static_cast<long long>(runs), per_violation);
    if (found == 0 && budget >= 100) {
      std::fprintf(stderr, "shrink row found no violation to shrink\n");
      all_ok = false;
    }
    Json shrink_row = Json::object();
    shrink_row.set("name", "shrink")
        .set("schedules", search.schedules)
        .set("violations", static_cast<std::int64_t>(found))
        .set("shrink_replays", replays)
        .set("shrink_runs", runs)
        .set("shrink_wall_ms", wall)
        .set("ms_per_violation", per_violation);
    rows.push(std::move(shrink_row));
  }

  const std::string path =
      json_out_path(argc, argv, "explore_throughput");
  if (!path.empty()) {
    Json doc = Json::object();
    doc.set("title", "explore_throughput")
        .set("budget", budget)
        .set("rows", std::move(rows));
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return 1;
    }
    out << doc.dump(2) << "\n";
  }
  return all_ok ? 0 : 1;
}
