// The three benchmark workloads. Each is one kind of closed-loop call
// into the library's public entry points; see README.md for why these
// three and what each one stresses.
#include <map>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/analysis/race_oracle.h"
#include "src/experiment/batch_runner.h"
#include "src/explore/explorer.h"
#include "src/history/history.h"
#include "src/runtime/process_pool.h"

namespace perfbench {

using namespace mpcn;

namespace {

double elapsed(double t0) { return now_s() - t0; }

Call finish_call(double t0, const CpuTimes& c0) {
  Call c;
  c.wall_s = elapsed(t0);
  const CpuTimes c1 = cpu_times();
  c.user_s = c1.user_s - c0.user_s;
  c.sys_s = c1.sys_s - c0.sys_s;
  return c;
}

Json outcome_of(const RunRecord& rec) {
  return Json::object()
      .set("cell_index", rec.cell_index)
      .set("error", rec.error)
      .set("timed_out", rec.timed_out);
}

ScheduleSpec schedule_spec(SchedulePolicyKind kind, std::uint64_t seed,
                           std::uint64_t pct_horizon) {
  ScheduleSpec s;
  s.kind = kind;
  s.seed = seed;
  s.pct_horizon = pct_horizon;
  return s;
}

// A schedule cell exactly as explore() runs it in-process: the schedule
// stamped, the grant trace recorded, the process bodies on a pool.
ExperimentCell schedule_cell(const ExperimentCell& base, int index,
                             const ScheduleSpec& schedule, ProcessPool* pool) {
  ExperimentCell c = base;
  c.cell_index = index;
  c.schedule = schedule;
  c.record_schedule = true;
  c.options.process_pool = pool;
  return c;
}

// The wire form has no pool or history hook: strip them before the cell
// goes to the encoding micro-measurement.
ExperimentCell wire_form(ExperimentCell c) {
  c.options.process_pool = nullptr;
  c.history = nullptr;
  return c;
}

// Runs `cell` under a span and adds its wall and steps to the run_cell
// accumulators that runtime.step_ns and experiment.run_cell_us read.
RunRecord timed_run_cell(const ExperimentCell& cell, Layers& layers,
                         double* wall_s = nullptr) {
  const double t0 = now_s();
  RunRecord rec;
  {
    ScopedSpan span("experiment.run_cell", "perfbench", cell.cell_index);
    rec = run_cell(cell);
  }
  const double dt = elapsed(t0);
  layers.samples["experiment.run_cell_us"].push_back(dt * 1e6);
  layers.sums["run_cell_s"] += dt;
  layers.sums["run_cell_steps"] += static_cast<double>(rec.steps);
  if (wall_s) *wall_s = dt;
  return rec;
}

// Records a run's history and prices the race oracle on it.
void sample_history(const ExperimentCell& cell, Layers& layers) {
  ExperimentCell c = cell;
  auto history = std::make_shared<HistoryRecorder>();
  c.history = history;
  const RunRecord rec = run_cell(c);
  const std::vector<Event> events = history->events();
  layers.sums["history_events"] += static_cast<double>(events.size());
  layers.sums["history_runs"] += 1.0;
  if (!rec.schedule_trace) return;
  const double t0 = now_s();
  {
    ScopedSpan span("analysis.find_races", "perfbench", cell.cell_index);
    (void)find_races(events, *rec.schedule_trace, rec.schedule_digest);
  }
  layers.samples["analysis.find_races_us"].push_back(elapsed(t0) * 1e6);
}

constexpr int kHistorySamples = 20;  // history/race-oracle runs per call
constexpr std::size_t kWireSamples = 200;

// Keeps the first cells and records for the wire and record-encoding
// micro-measurements, in wire form.
void keep_for_wire(const std::vector<ExperimentCell>& cells,
                   std::vector<RunRecord>& records, Layers& layers) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (layers.wire_cells.size() >= kWireSamples) return;
    layers.wire_cells.push_back(wire_form(cells[i]));
    layers.wire_records.push_back(std::move(records[i]));
  }
}

// ---------------------------------------------------------- churn_explore
//
// explore() over snapshot_churn {3,0,1}: direct mode, seeded-random
// policy, serial. Every schedule is 3 processes x (1 + 40 x 2) steps and
// no schedule violates, so almost all time is the lock-step handoff and
// the snapshot primitive.
constexpr int kChurnBudget = 50;
constexpr std::uint64_t kChurnStepsPerSchedule = 243;

class ChurnExplore : public Workload {
 public:
  explicit ChurnExplore(std::uint64_t seed)
      : seed_(seed), cell_(expand().front()) {}

  std::vector<ExperimentCell> expand() const override {
    return Experiment::named("snapshot_churn", ModelSpec{3, 0, 1})
        .direct()
        .seed(1)
        .inputs_fn(index_inputs)
        .cells();
  }

  double setup_once(int rep) override {
    const double t0 = now_s();
    const ExperimentCell cell = expand().front();
    (void)explore(cell, options(rep, 1));
    return elapsed(t0);
  }

  Call call(int k, bool reference, Checks& checks,
            std::vector<double>& cell_ms) override {
    const CpuTimes c0 = cpu_times();
    const double t0 = now_s();
    ExploreResult r;
    {
      ScopedSpan span("explore.explore", "perfbench", k);
      r = explore(cell_, options(k, kChurnBudget));
    }
    Call c = finish_call(t0, c0);
    c.steps = r.total_steps;
    c.schedules = r.schedules;
    c.cells = r.schedules;
    checks.expect(r.schedules == kChurnBudget, "churn.budget_ran",
                  std::to_string(r.schedules) + " schedules");
    checks.expect(r.violations.empty(), "churn.no_violations",
                  r.found() ? r.violations.front().why : "");
    checks.expect(r.total_steps == kChurnStepsPerSchedule *
                                       static_cast<std::uint64_t>(r.schedules),
                  "churn.exact_total_steps",
                  std::to_string(r.total_steps) + " steps");
    for (const ExploreViolation& v : r.violations) {
      outcomes_.push(outcome_of(v.record));
      c.cells += v.shrink_replays;
    }
    attempted_ += r.schedules;
    if (k == 0 && reference) digest_ = fnv64_hex(r.to_json().dump());
    if (r.schedules > 0) cell_ms.push_back(c.wall_s * 1000.0 / r.schedules);
    return c;
  }


  // The traced explore() wall against the same schedules run one by one
  // through run_cell, on a pool as explore() runs them. History, race
  // oracle and replay samples run after the timed loop, not inside it.
  void decompose(int k, const Call& /*untraced*/, const Call& traced,
                 Checks& checks, Layers& layers) override {
    ProcessPool pool(3);
    std::vector<ExperimentCell> cells;
    std::vector<RunRecord> records;
    double cells_s = 0.0;
    std::uint64_t steps = 0;
    for (int i = 0; i < kChurnBudget; ++i) {
      cells.push_back(schedule_cell(
          cell_, i,
          schedule_spec(SchedulePolicyKind::kSeededRandom,
                        base_seed(k, kChurnBudget) + i, 0),
          &pool));
      double dt = 0.0;
      records.push_back(timed_run_cell(cells.back(), layers, &dt));
      cells_s += dt;
      steps += records.back().steps;
      checks.expect(records.back().ok(), "churn.decomposed_cell_ok",
                    records.back().why);
    }
    checks.expect(steps == kChurnStepsPerSchedule * kChurnBudget,
                  "churn.decomposed_steps_exact", std::to_string(steps));
    layers.parts.emplace_back("experiment.run_cell", cells_s);
    overhead_wall_s_ += traced.wall_s;
    overhead_cells_s_ += cells_s;

    for (int i = 0; i < kHistorySamples; ++i) sample_history(cells[i], layers);
    if (records.front().schedule_trace) {
      const double t0 = now_s();
      RunRecord replayed;
      {
        ScopedSpan span("explore.replay_trace", "perfbench", 0);
        replayed =
            replay_trace(cells.front(), *records.front().schedule_trace);
      }
      layers.samples["explore.replay_us"].push_back(elapsed(t0) * 1e6);
      checks.expect(
          replayed.schedule_digest == records.front().schedule_digest,
          "churn.replay_identical", replayed.schedule_digest);
    }
    keep_for_wire(cells, records, layers);
  }

  void finish_layers(Layers& layers) const override {
    if (overhead_wall_s_ > 0.0) {
      layers.values["explore.overhead_share"] =
          (overhead_wall_s_ - overhead_cells_s_) / overhead_wall_s_;
    }
    layers.values["explore.search_share"] = 1.0;  // nothing to shrink
    layers.values["explore.shrink_share"] = 0.0;
  }

 private:
  std::uint64_t base_seed(int k, int budget) const {
    return seed_ + static_cast<std::uint64_t>(k) *
                       static_cast<std::uint64_t>(budget);
  }
  ExploreOptions options(int k, int budget) const {
    ExploreOptions o;
    o.policy = ExplorePolicy::kSeededRandom;
    o.seed = base_seed(k, budget);
    o.budget = budget;
    return o;
  }

  std::uint64_t seed_;
  ExperimentCell cell_;
  double overhead_wall_s_ = 0.0;
  double overhead_cells_s_ = 0.0;
};

// ----------------------------------------------------------- racy_sharded
//
// explore() over racy_register {3,0,1}: PCT, race oracle on, every
// violation collected and shrunk, schedules fanned out over 2 forked
// shard workers. Short schedules, so per-schedule fixed costs dominate.
constexpr int kRacyBudget = 100;
constexpr int kRacyShards = 2;

class RacySharded : public Workload {
 public:
  explicit RacySharded(std::uint64_t seed)
      : seed_(seed), cell_(expand().front()) {}

  std::vector<ExperimentCell> expand() const override {
    return Experiment::named("racy_register", ModelSpec{3, 0, 1})
        .direct()
        .seed(1)
        .inputs_fn(index_inputs)
        .cells();
  }

  double setup_once(int rep) override {
    const double t0 = now_s();
    const ExperimentCell cell = expand().front();
    (void)explore(cell, options(rep, 1, kRacyShards, true));
    return elapsed(t0);
  }

  Call call(int k, bool reference, Checks& checks,
            std::vector<double>& cell_ms) override {
    const CpuTimes c0 = cpu_times();
    const double t0 = now_s();
    ExploreResult r;
    {
      ScopedSpan span("explore.explore", "perfbench", k);
      r = explore(cell_, options(k, kRacyBudget, kRacyShards, true));
    }
    Call c = finish_call(t0, c0);
    c.steps = r.total_steps;
    c.schedules = r.schedules;
    c.cells = r.schedules + 1;  // the PCT horizon probe
    checks.expect(r.schedules == kRacyBudget, "racy.budget_ran",
                  std::to_string(r.schedules) + " schedules");
    std::vector<std::string> shrunk;
    for (const ExploreViolation& v : r.violations) {
      checks.expect(v.shrunk_verified, "racy.shrunk_verified",
                    "schedule " + std::to_string(v.schedule_index));
      outcomes_.push(outcome_of(v.record));
      c.cells += v.shrink_replays;
      shrunk.push_back(v.shrunk.digest());
    }
    violations_ += static_cast<std::int64_t>(r.violations.size());
    attempted_ += r.schedules;
    if (reference) {
      shrunk_digests_[k] = std::move(shrunk);
      if (k == 0) {
        report0_ = r.to_json().dump();
        digest_ = fnv64_hex(report0_);
      }
    }
    if (r.schedules > 0) cell_ms.push_back(c.wall_s * 1000.0 / r.schedules);
    return c;
  }

  void finish(Checks& checks) override {
    checks.expect(violations_ > 0, "racy.violations_found",
                  std::to_string(violations_) + " violations");
  }

  bool counters_from_calls() const override { return false; }

  // Call k as its pieces: the sharded search with shrinking off, then
  // this driver's own shrink() per violation; and the same search run
  // in-process serially, which must produce the identical report.
  void decompose(int k, const Call& /*untraced*/, const Call& /*traced*/,
                 Checks& checks, Layers& layers) override {
    std::vector<MetricsSnapshot> workers;
    ExploreOptions sharded = options(k, kRacyBudget, kRacyShards, false);
    sharded.worker_metrics = &workers;
    if (k == 0) sharded.worker_traces = &layers.worker_traces;
    layers.counters.begin();
    double t0 = now_s();
    ExploreResult search;
    {
      ScopedSpan span("explore.search", "perfbench", k);
      search = explore(cell_, sharded);
    }
    const double search_s = elapsed(t0);
    layers.counters.end(workers);
    layers.counter_steps += search.total_steps;
    layers.counter_runs += static_cast<std::uint64_t>(search.schedules) + 1;

    ProcessPool pool(3);
    ExperimentCell pooled = cell_;
    pooled.check_races = true;
    pooled.options.process_pool = &pool;
    double shrink_s = 0.0;
    std::vector<std::string> shrunk;
    for (const ExploreViolation& v : search.violations) {
      ShrinkOptions so;
      so.check_races = true;
      so.require_race = v.race;
      so.require_crash = v.crashed;
      t0 = now_s();
      ShrinkResult sr;
      {
        ScopedSpan span("explore.shrink", "perfbench", v.schedule_index);
        sr = shrink(pooled, v.trace, so);
      }
      const double dt = elapsed(t0);
      shrink_s += dt;
      layers.samples["explore.shrink_ms"].push_back(dt * 1000.0);
      shrink_replays_ += sr.replays;
      ++shrunk_violations_;
      checks.expect(sr.verified, "racy.driver_shrink_verified",
                    "schedule " + std::to_string(v.schedule_index));
      shrunk.push_back(sr.trace.digest());

      t0 = now_s();
      RunRecord replayed;
      {
        ScopedSpan span("explore.replay_trace", "perfbench",
                        v.schedule_index);
        replayed = replay_trace(pooled, v.trace);
      }
      layers.samples["explore.replay_us"].push_back(elapsed(t0) * 1e6);
      checks.expect(replayed.schedule_digest == v.trace.digest(),
                    "racy.replay_identical", replayed.schedule_digest);
    }
    const auto expected = shrunk_digests_.find(k);
    if (expected != shrunk_digests_.end()) {
      checks.expect(expected->second == shrunk, "racy.shrink_matches_explore",
                    "call " + std::to_string(k));
    }
    layers.parts.emplace_back("explore.search", search_s);
    layers.parts.emplace_back("explore.shrink", shrink_s);
    search_s_ += search_s;
    shrink_s_ += shrink_s;

    t0 = now_s();
    ExploreResult serial;
    {
      ScopedSpan span("explore.serial_search", "perfbench", k);
      serial = explore(cell_, options(k, kRacyBudget, 0, false));
    }
    const double serial_s = elapsed(t0);
    serial_s_ += serial_s;
    sharded_s_ += search_s;
    checks.expect(serial.to_json().dump() == search.to_json().dump(),
                  "racy.sharded_equals_serial", "call " + std::to_string(k));
    if (k == 0 && !report0_.empty()) {
      const ExploreResult full =
          explore(cell_, options(0, kRacyBudget, 0, true));
      checks.expect(full.to_json().dump() == report0_,
                    "racy.sharded_equals_serial_shrunk", "call 0");
    }

    // The same schedules through run_cell, as the serial search runs
    // them (pool, race oracle, pooled history).
    auto history = std::make_shared<HistoryRecorder>();
    std::vector<ExperimentCell> cells;
    std::vector<RunRecord> records;
    double cells_s = 0.0;
    for (int i = 0; i < kRacyBudget; ++i) {
      cells.push_back(schedule_cell(
          pooled, i,
          schedule_spec(SchedulePolicyKind::kPct,
                        base_seed(k, kRacyBudget) + i, search.pct_horizon),
          &pool));
      history->reset();
      cells.back().history = history;
      double dt = 0.0;
      records.push_back(timed_run_cell(cells.back(), layers, &dt));
      cells_s += dt;
      layers.sums["history_events"] += static_cast<double>(history->size());
      layers.sums["history_runs"] += 1.0;
    }
    overhead_wall_s_ += serial_s;
    overhead_cells_s_ += cells_s;
    for (int i = 0; i < kHistorySamples; ++i) {
      cells[i].history = nullptr;
      sample_history(cells[i], layers);
    }
    keep_for_wire(cells, records, layers);
  }

  void finish_layers(Layers& layers) const override {
    const double total = search_s_ + shrink_s_;
    if (total > 0.0) {
      layers.values["explore.search_share"] = search_s_ / total;
      layers.values["explore.shrink_share"] = shrink_s_ / total;
    }
    if (shrunk_violations_ > 0) {
      layers.values["explore.shrink_replays_per_violation"] =
          static_cast<double>(shrink_replays_) / shrunk_violations_;
    }
    if (sharded_s_ > 0.0) {
      layers.values["dist.shard_speedup"] = serial_s_ / sharded_s_;
    }
    if (overhead_wall_s_ > 0.0) {
      layers.values["explore.overhead_share"] =
          (overhead_wall_s_ - overhead_cells_s_) / overhead_wall_s_;
    }
  }

 private:
  std::uint64_t base_seed(int k, int budget) const {
    return seed_ + static_cast<std::uint64_t>(k) *
                       static_cast<std::uint64_t>(budget);
  }
  ExploreOptions options(int k, int budget, int shards, bool shrink) const {
    ExploreOptions o;
    o.policy = ExplorePolicy::kPct;
    o.seed = base_seed(k, budget);
    o.budget = budget;
    o.check_races = true;
    o.max_violations = 0;
    o.shrink_violations = shrink;
    o.shards = shards;
    return o;
  }

  std::uint64_t seed_;
  ExperimentCell cell_;
  std::string report0_;
  std::map<int, std::vector<std::string>> shrunk_digests_;
  std::int64_t violations_ = 0;
  std::int64_t shrink_replays_ = 0;
  std::int64_t shrunk_violations_ = 0;
  double search_s_ = 0.0;
  double shrink_s_ = 0.0;
  double serial_s_ = 0.0;
  double sharded_s_ = 0.0;
  double overhead_wall_s_ = 0.0;
  double overhead_cells_s_ = 0.0;
};

// ---------------------------------------------------------------- bg_grid
//
// Experiment::named("trivial_kset", {4,1,1}) simulated in three targets
// with floor(t/x) = 1, over a seed range, run_all on a pool of 2
// threads in lock-step. Every cell is a BG / x-safe-agreement
// simulation and must solve 2-set agreement.
constexpr int kGridSeeds = 8;  // seeds per batch; 3 targets -> 24 cells
const ModelSpec kGridSource{4, 1, 1};
const std::vector<ModelSpec> kGridTargets{{4, 3, 2}, {6, 5, 3}, {8, 7, 4}};
constexpr int kGridPool = 2;

std::string target_tag(const ModelSpec& m) {
  return "n" + std::to_string(m.n) + "_t" + std::to_string(m.t) + "_x" +
         std::to_string(m.x);
}

class BgGrid : public Workload {
 public:
  explicit BgGrid(std::uint64_t seed) : seed_(seed) {}

  std::vector<ExperimentCell> expand() const override {
    return grid(0).cells();
  }

  double setup_once(int rep) override {
    const double t0 = now_s();
    BatchOptions batch;
    batch.threads = kGridPool;
    (void)Experiment::named("trivial_kset", kGridSource)
        .in(kGridTargets.front())
        .seed(seed_ + static_cast<std::uint64_t>(rep))
        .inputs_fn(index_inputs)
        .run_all(batch);
    return elapsed(t0);
  }

  Call call(int k, bool reference, Checks& checks,
            std::vector<double>& cell_ms) override {
    const CpuTimes c0 = cpu_times();
    const double t0 = now_s();
    Report report;
    {
      ScopedSpan span("experiment.run_all", "perfbench", k);
      BatchOptions batch;
      batch.threads = kGridPool;
      report = grid(k).run_all(batch);
    }
    Call c = finish_call(t0, c0);
    c.steps = report.total_steps();
    c.schedules = static_cast<int>(report.records.size());
    c.cells = c.schedules;
    const std::size_t cells = kGridTargets.size() * kGridSeeds;
    checks.expect(report.records.size() == cells, "bg.grid_size",
                  std::to_string(report.records.size()));
    double record_ms = 0.0;
    for (const RunRecord& rec : report.records) {
      checks.expect(rec.ok() && rec.validated, "bg.cell_ok",
                    rec.target.to_string() + " seed " +
                        std::to_string(rec.seed) + ": " +
                        (rec.error.empty() ? rec.why : rec.error));
      if (!rec.ok()) outcomes_.push(outcome_of(rec));
      cell_ms.push_back(rec.wall_ms);
      record_ms += rec.wall_ms;
    }
    attempted_ += c.schedules;
    if (reference) {
      record_ms_[k] = record_ms;
      if (k == 0) digest_ = fnv64_hex(report.to_json(false).dump());
    }
    return c;
  }


  // Batch k as its pieces: expansion, every cell through run_cell (the
  // pool's work, divided by its size), and the same seeds run directly
  // in the source model for the simulation step ratio.
  void decompose(int k, const Call& untraced, const Call& /*traced*/,
                 Checks& checks, Layers& layers) override {
    double t0 = now_s();
    std::vector<ExperimentCell> cells;
    {
      ScopedSpan span("experiment.expand", "perfbench", k);
      cells = grid(k).cells();
    }
    layers.parts.emplace_back("experiment.expand", elapsed(t0));

    std::vector<RunRecord> records;
    double cells_s = 0.0;
    for (const ExperimentCell& cell : cells) {
      double dt = 0.0;
      RunRecord rec = timed_run_cell(cell, layers, &dt);
      cells_s += dt;
      checks.expect(rec.ok(), "bg.decomposed_cell_ok", rec.why);
      Target& t = targets_[target_tag(cell.target)];
      t.sim_steps += rec.steps;
      t.sim_wall_s += dt;
      t.cells += 1;
      records.push_back(std::move(rec));
    }
    layers.parts.emplace_back("experiment.run_cell", cells_s);
    keep_for_wire(cells, records, layers);

    std::uint64_t direct_steps = 0;
    {
      ScopedSpan span("core.direct_reference", "perfbench", k);
      for (const ExperimentCell& cell : direct(k).cells()) {
        const RunRecord rec = run_cell(cell);
        checks.expect(rec.ok(), "bg.direct_cell_ok", rec.why);
        direct_steps += rec.steps;
      }
    }
    for (const ModelSpec& m : kGridTargets) {
      targets_[target_tag(m)].direct_steps += direct_steps;
    }

    const auto rec_ms = record_ms_.find(k);
    if (rec_ms != record_ms_.end()) {
      busy_s_ += rec_ms->second / 1000.0;
      capacity_s_ += kGridPool * untraced.wall_s;
    }
  }

  void finish_layers(Layers& layers) const override {
    double sim_wall_s = 0.0;
    std::uint64_t direct_steps = 0;
    for (const auto& [tag, t] : targets_) {
      if (t.cells == 0 || t.direct_steps == 0) continue;
      layers.values["core.steps_per_cell." + tag] =
          static_cast<double>(t.sim_steps) / t.cells;
      layers.values["core.step_ratio." + tag] =
          static_cast<double>(t.sim_steps) / t.direct_steps;
      sim_wall_s += t.sim_wall_s;
      direct_steps += t.direct_steps;
    }
    if (direct_steps > 0) {
      layers.values["core.sim_step_ns"] = sim_wall_s * 1e9 / direct_steps;
    }
    if (capacity_s_ > 0.0) {
      layers.values["experiment.pool_busy_share"] = busy_s_ / capacity_s_;
    }
  }

 private:
  struct Target {
    std::uint64_t sim_steps = 0;
    std::uint64_t direct_steps = 0;
    double sim_wall_s = 0.0;
    int cells = 0;
  };

  std::uint64_t seed_lo(int k) const {
    return seed_ + static_cast<std::uint64_t>(k) * kGridSeeds;
  }
  Experiment grid(int k) const {
    Experiment e = Experiment::named("trivial_kset", kGridSource);
    e.in_each(kGridTargets)
        .seeds(seed_lo(k), seed_lo(k) + kGridSeeds - 1)
        .inputs_fn(index_inputs);
    return e;
  }
  Experiment direct(int k) const {
    Experiment e = Experiment::named("trivial_kset", kGridSource);
    e.direct()
        .seeds(seed_lo(k), seed_lo(k) + kGridSeeds - 1)
        .inputs_fn(index_inputs);
    return e;
  }

  std::uint64_t seed_;
  std::map<int, double> record_ms_;
  std::map<std::string, Target> targets_;
  double busy_s_ = 0.0;
  double capacity_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_churn_explore(std::uint64_t seed) {
  return std::make_unique<ChurnExplore>(seed);
}
std::unique_ptr<Workload> make_racy_sharded(std::uint64_t seed) {
  return std::make_unique<RacySharded>(seed);
}
std::unique_ptr<Workload> make_bg_grid(std::uint64_t seed) {
  return std::make_unique<BgGrid>(seed);
}

}  // namespace perfbench
