// Shared pieces of the benchmark driver: clocks, the per-call record,
// correctness-check tally, counter windows and the workload interface.
//
// The driver is a closed loop: one thread calls a public library entry
// point, waits for it to return, and only then makes the next call.
// Each workload says what one call is; driver.cc owns the loop, the
// traced phases and the JSON it prints for perfbench/run.py.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/experiment/experiment.h"
#include "src/experiment/record.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace perfbench {

using mpcn::Json;

double now_s();  // steady clock

// User and system CPU of this process plus its reaped children (forked
// shard workers are reaped before explore() returns).
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
CpuTimes cpu_times();

// FNV-1a 64 of `bytes`, as 16 hex digits: the report digest that the
// default seed is checked against.
std::string fnv64_hex(const std::string& bytes);

// Inputs for every cell: the process index, as the CLI uses by default.
std::vector<mpcn::Value> index_inputs(const mpcn::ModelSpec& m);

// One closed-loop call.
struct Call {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t steps = 0;  // base-model steps the call reports
  int schedules = 0;        // schedules searched, or grid cells run
  int cells = 0;            // run_cell executions, probe and shrink included
};

// Tally of named correctness checks. A check fails the run when any of
// its evaluations failed; the first failure's detail is kept.
class Checks {
 public:
  void expect(bool ok, const std::string& name,
              const std::string& detail = "");
  Json to_json() const;

 private:
  struct Entry {
    int passed = 0;
    int failed = 0;
    std::string detail;
  };
  std::map<std::string, Entry> entries_;
};

// Counter deltas summed over one or more windows, read through the
// public MetricsRegistry API. Worker snapshots (sharded calls) add in.
class CounterTally {
 public:
  void begin();
  void end(const std::vector<mpcn::MetricsSnapshot>& workers = {});
  std::uint64_t total(const std::string& name) const;

 private:
  mpcn::MetricsSnapshot start_;
  std::map<std::string, std::uint64_t> totals_;
};

// What the traced phases collect. `values` are final per-layer metrics;
// `samples` feed run.py's percentile rule; `parts` are the workload's
// traced pieces, compared against the untraced wall of the same calls.
struct Layers {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::pair<std::string, double>> parts;
  // Cells and records of the decomposition, for the wire and record
  // encoding micro-measurements.
  std::vector<mpcn::ExperimentCell> wire_cells;
  std::vector<mpcn::RunRecord> wire_records;
  // Sums the driver turns into ratios (run_cell wall and steps, history
  // events and runs).
  std::map<std::string, double> sums;
  // Shard workers' span rings, for the merged trace document.
  std::vector<mpcn::ProcessTrace> worker_traces;
  // Per-step counters, and the steps and runs of the windows they cover.
  CounterTally counters;
  std::uint64_t counter_steps = 0;
  std::uint64_t counter_runs = 0;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  // Wall seconds of the workload's call at its smallest size (budget 1
  // or a single cell), cell expansion included. Its inputs are a pure
  // function of (seed, rep), so a run's set-up samples cover many inputs.
  virtual double setup_once(int rep) = 0;

  // The k-th call; its inputs are a pure function of (seed, k). Per-call
  // correctness checks go to `checks`; `cell_ms` gets the call's cell
  // latency samples. A `reference` call keeps what later checks compare
  // against (call 0's report digest, per-call results for decompose());
  // warm-up calls and the traced replay are not references.
  virtual Call call(int k, bool reference, Checks& checks,
                    std::vector<double>& cell_ms) = 0;

  // Checks over the whole run (after every call).
  virtual void finish(Checks& /*checks*/) {}

  // Traced phase: per-step counters over the workload's own traced
  // calls. A workload that reads them around a piece of decompose()
  // instead returns false.
  virtual bool counters_from_calls() const { return true; }

  // Traced phase: rerun call k piece by piece, each piece under a span,
  // adding to `layers`. `untraced` and `traced` are call k as the loop
  // ran it with tracing off and on.
  virtual void decompose(int k, const Call& untraced, const Call& traced,
                         Checks& checks, Layers& layers) = 0;

  // Workload-specific per-layer metrics from what decompose() gathered.
  virtual void finish_layers(Layers& layers) const = 0;

  // The workload's experiment, rebuilt (for experiment.expand_ms).
  virtual std::vector<mpcn::ExperimentCell> expand() const = 0;

  // Digest of call 0's report, timing fields excluded.
  const std::string& digest() const { return digest_; }
  // Every record that was not ok(), as {cell_index, error, timed_out}:
  // run.py counts those that ended in an error or timed out as failed.
  const Json& outcomes() const { return outcomes_; }
  // Schedules or cells attempted, over every call of the run.
  std::int64_t attempted() const { return attempted_; }

 protected:
  std::string digest_;
  Json outcomes_ = Json::array();
  std::int64_t attempted_ = 0;
};

std::unique_ptr<Workload> make_churn_explore(std::uint64_t seed);
std::unique_ptr<Workload> make_racy_sharded(std::uint64_t seed);
std::unique_ptr<Workload> make_bg_grid(std::uint64_t seed);

}  // namespace perfbench
