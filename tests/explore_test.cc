// Tests: src/explore — schedule policies, trace record/replay, the
// explorer's PCT/DFS searches against the seeded racy_register exhibit,
// the delta-debugging shrinker, and the merge/wire integration of the
// schedule fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/dist/wire.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/diff.h"
#include "src/experiment/experiment.h"
#include "src/explore/explorer.h"
#include "src/explore/policy.h"
#include "src/explore/trace.h"
#include "src/history/history.h"
#include "src/history/linearizability.h"
#include "src/tasks/algorithms.h"

namespace mpcn {
namespace {

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

// One direct-mode cell of a registry scenario, grid-stamped at index 0.
ExperimentCell named_cell(const std::string& scenario, const ModelSpec& m,
                          std::uint64_t seed) {
  Experiment e = Experiment::named(scenario, m);
  e.direct().seed(seed).inputs_fn(index_inputs);
  return e.cells().front();
}

RunRecord run_recorded(ExperimentCell cell) {
  cell.record_schedule = true;
  return run_cell(cell);
}

// ------------------------------------------------------------ policies

TEST(SeededRandomPolicy, MatchesBuiltinGrantScheduleByteForByte) {
  // The acceptance pin: plugging the SchedulePolicy seam in with the
  // SeededRandom policy reproduces the controller's built-in schedule
  // exactly, for the current seeds.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExperimentCell builtin =
        named_cell("snapshot_churn", ModelSpec{3, 0, 1}, seed);
    const RunRecord a = run_recorded(builtin);

    ExperimentCell plugged = builtin;
    plugged.schedule.kind = SchedulePolicyKind::kSeededRandom;
    plugged.schedule.seed = seed;
    const RunRecord b = run_recorded(plugged);

    ASSERT_TRUE(a.schedule_trace && b.schedule_trace);
    EXPECT_EQ(a.schedule_trace->grants, b.schedule_trace->grants)
        << "seed " << seed;
    EXPECT_EQ(a.schedule_digest, b.schedule_digest);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.to_json(false).dump(), b.to_json(false).dump());
  }
}

TEST(SeededRandomPolicy, PinnedDigestsForCurrentSeeds) {
  // Literal digests of the built-in seeded schedules on the exhibit
  // cell. If these move, the deterministic adversary changed and every
  // recorded trace in the wild is invalidated — that must be a
  // deliberate, documented decision, not a drive-by.
  const char* expected[] = {"b3f68d09d0573f23", "c0f90204d2760363",
                            "ac116fafd1760143"};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RunRecord rec = run_recorded(
        named_cell("racy_register", ModelSpec{2, 0, 1}, seed));
    EXPECT_EQ(rec.schedule_digest, expected[seed - 1]) << "seed " << seed;
  }
}

TEST(ScheduleTrace, JsonRoundTripAndDigest) {
  ScheduleTrace t;
  t.grants = {ThreadId{0, 0}, ThreadId{1, 0}, ThreadId{0, 2},
              ThreadId{2, 1}};
  const ScheduleTrace back = ScheduleTrace::from_json(t.to_json());
  EXPECT_EQ(back.grants, t.grants);
  EXPECT_EQ(back.digest(), t.digest());
  EXPECT_EQ(t.digest().size(), 16u);
  ScheduleTrace other = t;
  other.grants[1] = ThreadId{1, 1};
  EXPECT_NE(other.digest(), t.digest());
}

TEST(ScheduleSpec, JsonRoundTripAllKinds) {
  ScheduleSpec random;
  random.kind = SchedulePolicyKind::kSeededRandom;
  random.seed = 42;
  EXPECT_EQ(ScheduleSpec::from_json(random.to_json()), random);

  ScheduleSpec pct;
  pct.kind = SchedulePolicyKind::kPct;
  pct.seed = 7;
  pct.pct_depth = 4;
  pct.pct_horizon = 120;
  EXPECT_EQ(ScheduleSpec::from_json(pct.to_json()), pct);

  ScheduleSpec scripted;
  scripted.kind = SchedulePolicyKind::kScripted;
  ScheduleTrace t;
  t.grants = {ThreadId{1, 0}, ThreadId{0, 0}};
  scripted.script = std::make_shared<const ScheduleTrace>(t);
  const ScheduleSpec back = ScheduleSpec::from_json(scripted.to_json());
  EXPECT_EQ(back, scripted);
  ASSERT_TRUE(back.script);
  EXPECT_EQ(back.script->grants, t.grants);
}

TEST(ScriptedPolicy, SkipsDeadEntriesAndFallsBack) {
  ScheduleTrace t;
  t.grants = {ThreadId{5, 0}, ThreadId{1, 0}, ThreadId{0, 0}};
  ScriptedPolicy p(std::make_shared<const ScheduleTrace>(t));
  const std::vector<ThreadId> runnable = {ThreadId{0, 0}, ThreadId{1, 0}};
  // q5 is not runnable: skipped; q1 matches.
  EXPECT_EQ(p.pick(runnable, 0), 1u);
  EXPECT_EQ(p.skipped(), 1u);
  // q0 matches.
  EXPECT_EQ(p.pick(runnable, 1), 0u);
  // Script exhausted: lowest runnable thread.
  EXPECT_EQ(p.pick(runnable, 2), 0u);
  EXPECT_EQ(p.fallback_grants(), 1u);
}

TEST(SchedulePolicy, OutOfRangePickIsCapturedAsCellError) {
  struct Bad : SchedulePolicy {
    std::size_t pick(const std::vector<ThreadId>& runnable,
                     std::uint64_t) override {
      return runnable.size() + 3;
    }
  };
  ExperimentCell cell = named_cell("snapshot_churn", ModelSpec{2, 0, 1}, 1);
  cell.policy_override = std::make_shared<Bad>();
  const RunRecord rec = run_cell(cell);
  EXPECT_NE(rec.error.find("SchedulePolicy::pick"), std::string::npos)
      << rec.error;
}

// ------------------------------------------------- replay determinism

TEST(Replay, ScriptedReplayIsByteIdenticalToTheRecordedRun) {
  const ExperimentCell cell =
      named_cell("snapshot_churn", ModelSpec{3, 0, 1}, 9);
  const RunRecord recorded = run_recorded(cell);
  ASSERT_TRUE(recorded.schedule_trace);

  const RunRecord replayed = replay_trace(cell, *recorded.schedule_trace);
  EXPECT_EQ(replayed.schedule_digest, recorded.schedule_digest);
  EXPECT_EQ(replayed.to_json(false).dump(), recorded.to_json(false).dump());
}

// --------------------------------------------------- search: the bug

TEST(Explore, SeededRandomMissesTheRacyWindow) {
  // The torn window sits at the end of the writer's padded timeline;
  // uniform schedules spend the readers' few snapshots near the front.
  // This is exactly why the explorer exists.
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kSeededRandom;
  opts.seed = 1;
  opts.budget = 60;
  opts.shrink_violations = false;
  const ExploreResult result =
      explore(named_cell("racy_register", ModelSpec{2, 0, 1}, 1), opts);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.schedules, 60);
}

TEST(Explore, PctFindsTheRacyWindowAndShrinksTheTrace) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 200;
  const ExploreResult result = explore(cell, opts);
  ASSERT_TRUE(result.found());
  const ExploreViolation& v = result.violations.front();
  EXPECT_NE(v.why.find("validity"), std::string::npos) << v.why;
  EXPECT_NE(v.why.find("-1"), std::string::npos) << v.why;

  // The shrinker contract: locally minimal, pinned length, and the
  // artifact still fails on replay.
  EXPECT_TRUE(v.shrunk_verified);
  EXPECT_LE(v.shrunk.size(), 14u);  // pinned: warmup + torn write + read
  EXPECT_LE(v.shrunk.size(), v.trace.size());
  const RunRecord refail = replay_trace(cell, v.shrunk);
  EXPECT_FALSE(refail.ok());
  EXPECT_TRUE(refail.validated && !refail.valid);

  // Locally minimal: dropping ANY single grant loses the failure.
  for (std::size_t i = 0; i < v.shrunk.size(); ++i) {
    ScheduleTrace candidate;
    candidate.grants = v.shrunk.grants;
    candidate.grants.erase(candidate.grants.begin() +
                           static_cast<long>(i));
    EXPECT_TRUE(replay_trace(cell, candidate).ok())
        << "dropping grant " << i << " should repair the schedule";
  }
}

TEST(Explore, BoundedDfsFindsTheRacyWindowSystematically) {
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 50;
  opts.dfs_preemption_bound = 1;
  const ExploreResult result =
      explore(named_cell("racy_register", ModelSpec{2, 0, 1}, 1), opts);
  ASSERT_TRUE(result.found());
  // The first preemption the DFS tries is at the deepest choice point —
  // exactly the torn window — so the find is nearly immediate.
  EXPECT_LE(result.violations.front().schedule_index, 5);
  EXPECT_TRUE(result.violations.front().shrunk_verified);
}

TEST(Explore, BoundedDfsExhaustsATinyScheduleSpace) {
  // Two processes, one shared-memory step each: the bounded tree is a
  // handful of schedules; the DFS must report exhaustion, find nothing,
  // and stop well under budget.
  SimulatedAlgorithm a;
  a.model = ModelSpec{2, 0, 1};
  for (int j = 0; j < 2; ++j) {
    a.programs.push_back([](SimContext& sc) {
      sc.write(sc.input());
      sc.decide(sc.input());
    });
  }
  ExperimentCell cell = Experiment::of(std::move(a))
                            .direct()
                            .seed(1)
                            .inputs_fn(index_inputs)
                            .cells()
                            .front();
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kBoundedDfs;
  opts.budget = 1000;
  opts.dfs_preemption_bound = 2;
  opts.shrink_violations = false;
  const ExploreResult result = explore(cell, opts);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.found());
  EXPECT_LT(result.schedules, 64);
}

TEST(Explore, ShardedPctMatchesInProcessSearch) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions local;
  local.policy = ExplorePolicy::kPct;
  local.seed = 1;
  local.budget = 100;
  local.shrink_violations = false;
  const ExploreResult a = explore(cell, local);

  ExploreOptions sharded = local;
  sharded.shards = 2;  // fork workers: no binary needed
  const ExploreResult b = explore(cell, sharded);

  ASSERT_TRUE(a.found());
  ASSERT_TRUE(b.found());
  EXPECT_EQ(a.violations.front().schedule_index,
            b.violations.front().schedule_index);
  EXPECT_EQ(a.violations.front().trace.digest(),
            b.violations.front().trace.digest());
}

TEST(Explore, SequentialSpecOracleObservesDirectHistories) {
  // Correct workload + snapshot spec: the oracle runs and stays quiet.
  SimulatedAlgorithm a;
  a.model = ModelSpec{2, 0, 1};
  for (int j = 0; j < 2; ++j) {
    a.programs.push_back([](SimContext& sc) {
      sc.write(sc.input());
      (void)sc.snapshot();
      sc.decide(sc.input());
    });
  }
  ExperimentCell cell = Experiment::of(std::move(a))
                            .direct()
                            .seed(3)
                            .inputs_fn(index_inputs)
                            .cells()
                            .front();
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kSeededRandom;
  opts.budget = 5;
  opts.spec = std::make_shared<const SnapshotSpec>(2);
  const ExploreResult result = explore(cell, opts);
  EXPECT_FALSE(result.found());
  EXPECT_EQ(result.skipped_spec_checks, 0);

  // The hook itself records complete, linearizable events.
  auto history = std::make_shared<HistoryRecorder>();
  ExperimentCell observed = cell;
  observed.history = history;
  ASSERT_TRUE(run_cell(observed).ok());
  const std::vector<Event> events = history->events();
  EXPECT_EQ(events.size(), 4u);  // 2 writes + 2 snapshots
  EXPECT_TRUE(is_linearizable(events, SnapshotSpec(2)));
}

TEST(Explore, RejectsUnshardableConfigurations) {
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  ExploreOptions dfs;
  dfs.policy = ExplorePolicy::kBoundedDfs;
  dfs.shards = 2;
  EXPECT_THROW(explore(cell, dfs), ProtocolError);

  ExploreOptions spec;
  spec.policy = ExplorePolicy::kPct;
  spec.shards = 2;
  spec.spec = std::make_shared<const SnapshotSpec>(2);
  EXPECT_THROW(explore(cell, spec), ProtocolError);

  // Each shard worker subprocess runs its schedules one at a time: a
  // thread count on top of it would be silently ignored, so it is refused.
  ExploreOptions threaded;
  threaded.policy = ExplorePolicy::kPct;
  threaded.shards = 2;
  threaded.threads = 4;
  EXPECT_THROW(explore(cell, threaded), ProtocolError);
}

// ------------------------------------------ shrinker: differential pins

// FNV-1a 64 of a report dump, as 16 hex digits.
std::string fnv64_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

ExploreOptions racy_pct(bool check_races) {
  ExploreOptions opts;
  opts.policy = ExplorePolicy::kPct;
  opts.seed = 1;
  opts.budget = 100;
  opts.max_violations = 0;
  opts.check_races = check_races;
  return opts;
}

TEST(ShrinkDifferential, ReportBytesMatchTheShrinkerThatRanEveryCandidate) {
  // Literal digests of to_json(true) taken from the shrinker before it
  // learned to skip candidates identical to the one just judged. Every
  // search collects all its violations, so each case shrinks several
  // traces; shrunk traces, shrink_replays and the verified flags are all
  // inside the digested bytes.
  struct Pinned {
    const char* name;
    ExperimentCell cell;
    ExploreOptions opts;
    const char* digest;
  };
  const ExperimentCell racy2 =
      named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  const ExperimentCell racy3 =
      named_cell("racy_register", ModelSpec{3, 0, 1}, 1);
  std::vector<Pinned> cases = {
      {"racy {2,0,1}", racy2, racy_pct(false), "7e139e2f6ac473d9"},
      {"racy {2,0,1} races", racy2, racy_pct(true), "78b96c9fd1a26e8a"},
      {"racy {3,0,1}", racy3, racy_pct(false), "928756fa6773d067"},
      {"racy {3,0,1} races", racy3, racy_pct(true), "65ddbe5294749e3e"},
  };

  // The (schedule x crash) product: crash marks travel through ddmin.
  Experiment window = Experiment::named("safe_agreement_window",
                                        ModelSpec{2, 1, 1});
  window.direct().seed(7).step_limit(400).inputs_fn(index_inputs);
  ExploreOptions product;
  product.policy = ExplorePolicy::kSeededRandom;
  product.seed = 7;
  product.budget = 200;
  product.max_violations = 0;
  product.crash_budget = 1;
  product.crash_rate = 0.2;
  cases.push_back({"crash product", window.cells().front(), product,
                   "0bd67f2412e2de2b"});

  // A shrink budget that binds: the skipped candidates still spend it.
  ExploreOptions tight = racy_pct(true);
  tight.shrink_budget = 9;
  cases.push_back(
      {"racy {3,0,1} shrink-budget 9", racy3, tight, "dad50aa1dfb22d48"});

  for (const Pinned& p : cases) {
    const ExploreResult result = explore(p.cell, p.opts);
    EXPECT_TRUE(result.found()) << p.name;
    EXPECT_EQ(fnv64_hex(result.to_json(true).dump()), p.digest) << p.name;
    if (p.opts.shrink_budget == 9) {
      const bool binds = std::any_of(
          result.violations.begin(), result.violations.end(),
          [](const ExploreViolation& v) { return v.shrink_replays > 9; });
      EXPECT_TRUE(binds) << "the budget must cut at least one shrink short";
    }
  }
}

TEST(ShrinkDifferential, RepeatedGrantsAreJudgedWithoutRerunning) {
  // A lock-step trace of racy_register {3,0,1} is full of runs of one
  // thread's grants; deleting any grant of such a run yields the same
  // candidate, which the shrinker counts but does not replay again.
  const ExperimentCell cell =
      named_cell("racy_register", ModelSpec{3, 0, 1}, 1);
  ExploreOptions opts = racy_pct(true);
  opts.shrink_violations = false;
  const ExploreResult found = explore(cell, opts);
  ASSERT_TRUE(found.found());
  const ScheduleTrace& trace = found.violations.front().trace;
  ASSERT_NE(std::adjacent_find(trace.grants.begin(), trace.grants.end()),
            trace.grants.end())
      << "the case needs a trace with repeated grants";

  ShrinkOptions so;
  so.check_races = true;
  so.require_race = found.violations.front().race;
  const ShrinkResult sr = shrink(cell, trace, so);
  EXPECT_TRUE(sr.verified);
  // Pinned from the shrinker that ran every candidate.
  EXPECT_EQ(sr.replays, 44);
  EXPECT_EQ(sr.trace.digest(), "05940f0af7ff7c81");
  EXPECT_LT(sr.runs, sr.replays);
  EXPECT_GE(sr.runs, 2);  // the reproduction and the verification
}

// --------------------------------------------------- wire integration

TEST(Wire, CellSpecCarriesScheduleAndRecordFlag) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  cell.schedule.kind = SchedulePolicyKind::kPct;
  cell.schedule.seed = 11;
  cell.schedule.pct_depth = 2;
  cell.schedule.pct_horizon = 64;
  cell.record_schedule = true;

  const CellSpec spec = CellSpec::from_cell(cell);
  const CellSpec back = CellSpec::from_json(spec.to_json());
  EXPECT_EQ(back.schedule, cell.schedule);
  EXPECT_TRUE(back.record_schedule);

  // A worker-side rebuild runs the identical schedule.
  const RunRecord theirs = run_cell(back.to_cell());
  const RunRecord ours = run_cell(cell);
  EXPECT_EQ(theirs.schedule_digest, ours.schedule_digest);
  EXPECT_EQ(theirs.to_json(false).dump(), ours.to_json(false).dump());
}

TEST(Wire, RejectsInProcessHooks) {
  ExperimentCell cell = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  cell.policy_override = std::make_shared<BoundedDfsPolicy>(1);
  EXPECT_THROW(CellSpec::from_cell(cell), ProtocolError);

  ExperimentCell hooked = named_cell("racy_register", ModelSpec{2, 0, 1}, 1);
  hooked.history = std::make_shared<HistoryRecorder>();
  EXPECT_THROW(CellSpec::from_cell(hooked), ProtocolError);
}

TEST(RunRecordJson, ScheduleFieldsRoundTripAndStayOptional) {
  const RunRecord rec =
      run_recorded(named_cell("racy_register", ModelSpec{2, 0, 1}, 2));
  ASSERT_FALSE(rec.schedule_digest.empty());
  ASSERT_TRUE(rec.schedule_trace);
  const RunRecord back = RunRecord::from_json(rec.to_json(false));
  EXPECT_EQ(back.schedule_digest, rec.schedule_digest);
  ASSERT_TRUE(back.schedule_trace);
  EXPECT_EQ(back.schedule_trace->grants, rec.schedule_trace->grants);

  // Unrecorded runs serialize without the fields (pre-explorer format).
  ExperimentCell plain = named_cell("racy_register", ModelSpec{2, 0, 1}, 2);
  const Json j = run_cell(plain).to_json(false);
  EXPECT_EQ(j.find("schedule_digest"), nullptr);
  EXPECT_EQ(j.find("schedule_trace"), nullptr);
}

// ------------------------------------------------ merge compat (PR4-)

TEST(ReportMerge, ToleratesRecordsWithoutCellIndex) {
  RunRecord stamped;
  stamped.scenario = "s";
  stamped.cell_index = 0;
  stamped.seed = 1;
  RunRecord old_a;  // pre-PR4 baseline record: no grid stamp
  old_a.scenario = "s";
  old_a.seed = 2;
  old_a.steps = 10;
  RunRecord old_b = old_a;
  old_b.seed = 3;

  Report part1;
  part1.title = "t";
  part1.records = {stamped, old_a};
  Report part2;
  part2.records = {old_b, old_a};  // old_a again: exact duplicate

  const Report merged = Report::merge({part1, part2});
  ASSERT_EQ(merged.records.size(), 3u);
  EXPECT_EQ(merged.records[0].cell_index, 0);  // stamped records first
  EXPECT_EQ(merged.records[1].seed, 2u);       // then part order
  EXPECT_EQ(merged.records[2].seed, 3u);       // duplicate dropped

  // Same identity, different payload: kept (identity is not unique).
  RunRecord old_c = old_a;
  old_c.steps = 99;
  Report part3;
  part3.records = {old_c};
  EXPECT_EQ(Report::merge({part1, part3}).records.size(), 3u);

  // diff_reports pairs unstamped records by identity just the same.
  const ReportDiff diff = diff_reports(part1, part1);
  EXPECT_EQ(diff.matched, 2);
  EXPECT_FALSE(diff.has_regressions());
}

}  // namespace
}  // namespace mpcn
