// Tests: the parallel in-process exploration engine (explorer.cc) and
// the allocation-lean run machinery under it.
//
// The contract under test is byte-identity: `explore` with threads = N
// or shards = K must produce the SAME report JSON, violations, shrunk
// traces, exit-code-determining flags and explore.* counters as the
// serial run, for every policy and oracle combination — parallelism is
// a wall-clock lever, never a semantics lever. The same holds one level down for ProcessPool-hosted
// executions vs per-run spawned threads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/errors.h"
#include "src/dist/wire.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/obs/metrics.h"
#include "src/runtime/process_pool.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

ExperimentCell named_cell(const std::string& scenario, const ModelSpec& m,
                          std::uint64_t seed, MemKind mem) {
  Experiment e = Experiment::named(scenario, m);
  e.direct().seed(seed).mem(mem).inputs_fn(index_inputs);
  return e.cells().front();
}

// Everything observable about a search result, timing excluded: the full
// JSON (records included), the summary line, the recorded first trace,
// and the flags the CLI turns into exit codes.
std::string observable(const ExploreResult& r) {
  return r.to_json(/*include_traces=*/true).dump(2) + "\n" + r.summary() +
         "\nfirst_trace=" + r.first_trace.digest() +
         "\nfound=" + std::to_string(r.found()) +
         "\nrace=" + std::to_string(r.race_found());
}

void expect_parallel_matches_serial(const std::string& scenario,
                                    ExplorePolicy policy, MemKind mem,
                                    bool check_races, int budget,
                                    int max_violations = 1) {
  ExperimentCell cell = named_cell(scenario, ModelSpec{2, 0, 1}, 1, mem);

  ExploreOptions opts;
  opts.policy = policy;
  opts.seed = 1;
  opts.budget = budget;
  opts.max_violations = max_violations;
  opts.check_races = check_races;

  opts.threads = 0;
  const std::string serial = observable(explore(cell, opts));

  for (int threads : {1, 2, 8}) {
    opts.threads = threads;
    EXPECT_EQ(observable(explore(cell, opts)), serial)
        << scenario << " policy=" << to_string(policy)
        << " mem=" << static_cast<int>(mem) << " races=" << check_races
        << " threads=" << threads;
  }

  // The shard pool is the third source of the same accounting step.
  opts.threads = 0;
  opts.shards = 2;  // fork workers: no binary needed
  EXPECT_EQ(observable(explore(cell, opts)), serial)
      << scenario << " policy=" << to_string(policy)
      << " mem=" << static_cast<int>(mem) << " races=" << check_races
      << " shards=2";
}

// The explore.* counters one explore() call moved (zero entries dropped).
std::map<std::string, std::uint64_t> explore_counter_deltas(
    const ExperimentCell& cell, const ExploreOptions& opts,
    std::string* observed) {
  const MetricsSnapshot before = metrics_registry().snapshot();
  *observed = observable(explore(cell, opts));
  const MetricsSnapshot delta =
      metrics_registry().snapshot().delta_since(before);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("explore.", 0) == 0) out[name] = value;
  }
  return out;
}

// Serial, threads = 3 and every shard count in `shard_counts` agree on
// the report AND on every explore.* counter the search moved. Returns
// the serial result.
ExploreResult expect_backends_agree(const ExperimentCell& cell,
                                    ExploreOptions opts,
                                    std::vector<int> shard_counts = {2}) {
  opts.threads = 0;
  opts.shards = 0;
  const ExploreResult serial_result = explore(cell, opts);
  std::string serial;
  const auto serial_counters = explore_counter_deltas(cell, opts, &serial);
  EXPECT_EQ(serial, observable(serial_result));
  const auto schedules = serial_counters.find("explore.schedules");
  EXPECT_EQ(schedules == serial_counters.end() ? 0 : schedules->second,
            static_cast<std::uint64_t>(serial_result.schedules));

  opts.threads = 3;
  std::string threaded;
  EXPECT_EQ(explore_counter_deltas(cell, opts, &threaded), serial_counters)
      << "threads=3 max_violations=" << opts.max_violations;
  EXPECT_EQ(threaded, serial);

  opts.threads = 0;
  for (int shards : shard_counts) {
    opts.shards = shards;
    std::string sharded;
    EXPECT_EQ(explore_counter_deltas(cell, opts, &sharded), serial_counters)
        << "shards=" << shards << " budget=" << opts.budget
        << " max_violations=" << opts.max_violations;
    EXPECT_EQ(sharded, serial) << "shards=" << shards
                               << " budget=" << opts.budget
                               << " max_violations=" << opts.max_violations;
  }
  return serial_result;
}

// ------------------------------------------------- byte-identity matrix

TEST(ParallelExplore, RandomMatchesSerialBothMemAxes) {
  // Seeded-random sampling misses the racy_register bug at this budget:
  // the clean-search accounting (schedules, steps, first trace) must
  // merge identically.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kPrimitive, false, 50);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kAfek, false, 25);
}

TEST(ParallelExplore, RandomMatchesSerialWithRaceOracle) {
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kPrimitive, true, 50);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kSeededRandom,
                                 MemKind::kAfek, true, 25);
}

TEST(ParallelExplore, PctMatchesSerialBothMemAxes) {
  // PCT finds the torn write inside this budget on the primitive axis,
  // so this case pins violation acceptance order, shrunk traces and
  // shrink replay counts across the merge, not just clean accounting.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, false, 100);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kAfek, false, 25);
}

TEST(ParallelExplore, PctMatchesSerialWithRaceOracle) {
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, true, 100);
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kAfek, true, 25);
}

TEST(ParallelExplore, CollectAllViolationsMatchesSerial) {
  // max_violations = 0 disables the early-stop cutoff entirely: every
  // schedule in the budget runs and every violation merges in order.
  expect_parallel_matches_serial("racy_register", ExplorePolicy::kPct,
                                 MemKind::kPrimitive, true, 120,
                                 /*max_violations=*/0);
}

TEST(ParallelExplore, BoundedDfsFallsBackToSerial) {
  // DFS carries its search tree across runs: threads > 1 is documented
  // to fall back to the serial engine, so the result is identical and
  // the systematic search still finds the bug.
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 60;

  opts.threads = 0;
  const ExploreResult serial = explore(cell, opts);
  opts.threads = 8;
  const ExploreResult threaded = explore(cell, opts);
  EXPECT_EQ(observable(threaded), observable(serial));
  EXPECT_TRUE(serial.found());
}

TEST(ParallelExplore, BackendsMoveTheSameExploreCounters) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  opts.check_races = true;
  // max_violations -> schedules accounted before the stop (pinned).
  const std::map<int, int> stops = {{0, 200}, {1, 85}, {3, 166}};
  for (const auto& [max_violations, schedules] : stops) {
    opts.max_violations = max_violations;
    const ExploreResult r = expect_backends_agree(cell, opts);
    EXPECT_EQ(r.schedules, schedules) << max_violations;
    EXPECT_EQ(r.violations.size(), max_violations == 1 ? 1u : 3u)
        << max_violations;
  }
}

TEST(ParallelExplore, ProbeViolationIsAccountedAlikeByEveryBackend) {
  // The PCT horizon probe (schedule_index -1) is itself a crash
  // violation here: at max_violations 1 it ends the search before any
  // schedule runs, and with collect-all it is the first of the findings.
  Experiment e = Experiment::named("safe_agreement_window", ModelSpec{2, 1, 1});
  e.direct().seed(1).step_limit(400).inputs_fn(index_inputs);
  const ExperimentCell cell = e.cells().front();
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 8;
  opts.budget = 20;
  opts.crash_budget = 1;
  opts.crash_rate = 0.2;

  opts.max_violations = 1;
  const ExploreResult stopped = expect_backends_agree(cell, opts);
  ASSERT_EQ(stopped.violations.size(), 1u);
  EXPECT_EQ(stopped.violations.front().schedule_index, -1);
  EXPECT_TRUE(stopped.violations.front().crashed);
  EXPECT_EQ(stopped.schedules, 0);

  opts.max_violations = 0;
  const ExploreResult all = expect_backends_agree(cell, opts);
  ASSERT_EQ(all.violations.size(), 5u);
  EXPECT_EQ(all.violations.front().schedule_index, -1);
  EXPECT_EQ(all.schedules, 20);
}

TEST(ParallelExplore, ShardRangesMatchSerialAtEveryChunkShape) {
  // The shard pool ships ceil(budget / (4 shards))-schedule ranges.
  // These budgets give ranges of one schedule, ragged last ranges, fewer
  // ranges than workers and several ranges per worker; the stops land
  // inside ranges, on their edges, and not at all.
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.check_races = true;
  for (int budget : {1, 2, 7, 13, 100}) {
    for (int max_violations : {0, 1, 3}) {
      opts.budget = budget;
      opts.max_violations = max_violations;
      expect_backends_agree(cell, opts, {1, 2, 3});
    }
  }

  // The crash-product probe violation (schedule_index -1) ahead of the
  // ranges, stopping the search before any range is accounted or not.
  Experiment e = Experiment::named("safe_agreement_window", ModelSpec{2, 1, 1});
  e.direct().seed(1).step_limit(400).inputs_fn(index_inputs);
  ExploreOptions crash;
  crash.policy = ExplorePolicy::kPct;
  crash.seed = 8;
  crash.budget = 20;
  crash.crash_budget = 1;
  crash.crash_rate = 0.2;
  for (int max_violations : {0, 1, 3}) {
    crash.max_violations = max_violations;
    expect_backends_agree(e.cells().front(), crash, {1, 2, 3});
  }
}

TEST(ParallelExplore, MaxViolationsStopReachesShardWorkers) {
  // One shard serves the four 50-schedule ranges one at a time, so the
  // pool learns of the stop (schedule 84, in the second range) before it
  // would dispatch the third: exactly two ranges are served. Collect-all
  // runs every range. The report is the serial one either way.
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  opts.check_races = true;
  const std::map<int, std::int64_t> served = {{0, 200}, {1, 100}};
  for (const auto& [max_violations, schedules_served] : served) {
    opts.max_violations = max_violations;
    opts.shards = 0;
    const std::string serial = observable(explore(cell, opts));
    std::vector<WorkerHealth> health;
    opts.shards = 1;
    opts.health = &health;
    EXPECT_EQ(observable(explore(cell, opts)), serial) << max_violations;
    opts.health = nullptr;
    ASSERT_EQ(health.size(), 1u);
    EXPECT_EQ(health[0].cells_served, schedules_served) << max_violations;
  }
}

// ----------------------------------------------- pooled execution layer

TEST(ProcessPool, PooledExecutionMatchesSpawnedByteForByte) {
  // Which OS thread hosts a process body must be invisible to the grant
  // schedule; the pool is reused across runs to mimic the hot loop.
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 7,
                                   MemKind::kPrimitive);
  cell.record_schedule = true;
  const RunRecord spawned = run_cell(cell);
  ASSERT_TRUE(spawned.schedule_trace);

  ProcessPool pool(3);
  cell.options.process_pool = &pool;
  for (int run = 0; run < 5; ++run) {
    const RunRecord pooled = run_cell(cell);
    EXPECT_EQ(pooled.schedule_digest, spawned.schedule_digest) << run;
    EXPECT_EQ(pooled.to_json(/*include_timing=*/false).dump(),
              spawned.to_json(/*include_timing=*/false).dump())
        << run;
  }
}

TEST(ProcessPool, UndersizedPoolFallsBackToSpawning) {
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 7,
                                   MemKind::kPrimitive);
  cell.record_schedule = true;
  const RunRecord spawned = run_cell(cell);

  ProcessPool small(2);  // 3 processes do not fit
  cell.options.process_pool = &small;
  const RunRecord fallback = run_cell(cell);
  EXPECT_EQ(fallback.to_json(false).dump(), spawned.to_json(false).dump());
}

TEST(ProcessPool, CellsCarryingPoolsCannotCrossTheShardWire) {
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 1,
                                   MemKind::kPrimitive);
  ProcessPool pool(3);
  cell.options.process_pool = &pool;
  EXPECT_THROW(CellSpec::from_cell(cell), ProtocolError);
}

}  // namespace
}  // namespace mpcn
