// perfbench_driver: runs one benchmark workload as a closed loop and
// prints one JSON line of raw measurements, which perfbench/run.py turns
// into the named metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <path>]
//
// --trace 0 times the workload's calls with tracing off (end-to-end
// metrics). --trace 1 runs the same calls untraced, replays them traced,
// then reruns them piece by piece under spans and prices single modules
// directly (per-layer metrics); the spans go to --trace-out as a
// Chrome trace-event document that Perfetto loads.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/dist/wire.h"
#include "src/runtime/execution.h"
#include "src/snapshot/primitive_snapshot.h"

namespace perfbench {

using namespace mpcn;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes cpu_times() {
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  CpuTimes t;
  t.user_s = s(self.ru_utime) + s(children.ru_utime);
  t.sys_s = s(self.ru_stime) + s(children.ru_stime);
  return t;
}

std::string fnv64_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<Value> index_inputs(const ModelSpec& m) {
  std::vector<Value> in;
  in.reserve(static_cast<std::size_t>(m.n));
  for (int i = 0; i < m.n; ++i) in.push_back(Value(i));
  return in;
}

void Checks::expect(bool ok, const std::string& name,
                    const std::string& detail) {
  Entry& e = entries_[name];
  if (ok) {
    ++e.passed;
    return;
  }
  if (e.failed++ == 0) e.detail = detail;
}

Json Checks::to_json() const {
  Json arr = Json::array();
  for (const auto& [name, e] : entries_) {
    arr.push(Json::object()
                 .set("name", name)
                 .set("ok", e.failed == 0)
                 .set("passed", e.passed)
                 .set("failed", e.failed)
                 .set("detail", e.detail));
  }
  return arr;
}

void CounterTally::begin() { start_ = metrics_registry().snapshot(); }

void CounterTally::end(const std::vector<MetricsSnapshot>& workers) {
  const MetricsSnapshot delta =
      metrics_registry().snapshot().delta_since(start_);
  for (const auto& [name, v] : delta.counters) totals_[name] += v;
  for (const MetricsSnapshot& w : workers) {
    for (const auto& [name, v] : w.counters) totals_[name] += v;
  }
}

std::uint64_t CounterTally::total(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second;
}

namespace {

// Calls made before timing starts: the host settles from idle to
// sustained load (churn runs ~40% faster in its first two seconds).
constexpr double kWarmupS = 2.0;
constexpr int kWarmupCallBase = 1 << 20;
constexpr double kSetupShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::runtime_error("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "churn_explore") return make_churn_explore(a.seed);
  if (a.workload == "racy_sharded") return make_racy_sharded(a.seed);
  if (a.workload == "bg_grid") return make_bg_grid(a.seed);
  throw std::runtime_error("unknown workload '" + a.workload +
                           "' (want churn_explore|racy_sharded|bg_grid)");
}

Json numbers(const std::vector<double>& v) {
  Json arr = Json::array();
  for (double x : v) arr.push(x);
  return arr;
}

Json calls_json(const std::vector<Call>& calls) {
  Json arr = Json::array();
  for (const Call& c : calls) {
    arr.push(Json::object()
                 .set("wall_s", c.wall_s)
                 .set("user_s", c.user_s)
                 .set("sys_s", c.sys_s)
                 .set("steps", c.steps)
                 .set("schedules", c.schedules)
                 .set("cells", c.cells));
  }
  return arr;
}

double peak_rss_kb() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss);
}

// Runs calls k = 0, 1, ... until `seconds` have passed (at least one).
// Each call is followed, outside its timing, by set-up reps worth at
// least kSetupShare of its wall (one at the least), so the set-up samples
// see the same host speeds as the calls; taken in one block, they saw
// only that block's speed, which drifts over a run. Rep r uses inputs r,
// so the samples also cover many inputs.
std::vector<Call> closed_loop(Workload& w, double seconds, Checks& checks,
                              std::vector<double>& cell_ms,
                              std::vector<double>& setup_s) {
  std::vector<Call> calls;
  const double t0 = now_s();
  for (int k = 0; k == 0 || now_s() - t0 < seconds; ++k) {
    calls.push_back(w.call(k, /*reference=*/true, checks, cell_ms));
    double spent = 0.0;
    do {
      setup_s.push_back(w.setup_once(static_cast<int>(setup_s.size())));
      spent += setup_s.back();
    } while (spent < kSetupShare * calls.back().wall_s);
  }
  return calls;
}

// Untimed calls with seeds past any timed call's: their results are
// checked, their time is not reported.
void warm_up(Workload& w, Checks& checks) {
  std::vector<double> ignored;
  const double t0 = now_s();
  for (int k = kWarmupCallBase; now_s() - t0 < kWarmupS; ++k) {
    w.call(k, /*reference=*/false, checks, ignored);
  }
}

// SnapshotObject::write and ::snapshot called directly, width 3,
// primitive memory, from one process in free mode (so a step is the
// op's own StepGuard, with no lock-step handoff).
void snapshot_micro(Layers& layers) {
  constexpr int kBlocks = 21;
  constexpr int kOps = 2000;
  auto snap = std::make_shared<PrimitiveSnapshot>(3, /*check_ownership=*/false);
  std::vector<double>& write_ns = layers.samples["snapshot.write_ns"];
  std::vector<double>& scan_ns = layers.samples["snapshot.scan_ns"];
  std::size_t seen = 0;
  ExecutionOptions o;
  o.mode = SchedulerMode::kFree;
  o.step_limit = std::uint64_t{1} << 40;
  std::vector<Program> programs{[&](ProcessContext& ctx) {
    for (int b = 0; b < kBlocks; ++b) {
      double t0 = now_s();
      for (int i = 0; i < kOps; ++i) {
        snap->write(ctx, i % 3, Value(b * kOps + i));
      }
      write_ns.push_back((now_s() - t0) * 1e9 / kOps);
      t0 = now_s();
      for (int i = 0; i < kOps; ++i) seen += snap->snapshot(ctx).size();
      scan_ns.push_back((now_s() - t0) * 1e9 / kOps);
    }
    ctx.decide(Value(0));
  }};
  ScopedSpan span("snapshot.direct_calls", "perfbench");
  run_execution(std::move(programs), {Value(0)}, o);
  if (seen != static_cast<std::size_t>(3) * kBlocks * kOps) {
    throw std::runtime_error("snapshot returned a view of the wrong width");
  }
}

// The wire encoders and parser on the decomposition's cells and records.
void wire_micro(Layers& layers, Checks& checks) {
  ScopedSpan span("dist.wire", "perfbench");
  std::vector<double>& cell_us = layers.samples["dist.cell_line_us"];
  std::vector<double>& result_us = layers.samples["dist.result_line_us"];
  std::vector<double>& parse_us = layers.samples["dist.parse_us"];
  double cell_bytes = 0.0;
  double result_bytes = 0.0;
  for (std::size_t i = 0; i < layers.wire_cells.size(); ++i) {
    const double t0 = now_s();
    const CellSpec spec = CellSpec::from_cell(layers.wire_cells[i]);
    const std::string line = cell_line(static_cast<std::int64_t>(i), spec);
    cell_us.push_back((now_s() - t0) * 1e6);
    cell_bytes += static_cast<double>(line.size());
  }
  for (std::size_t i = 0; i < layers.wire_records.size(); ++i) {
    double t0 = now_s();
    const std::string line =
        result_line(static_cast<std::int64_t>(i), layers.wire_records[i]);
    result_us.push_back((now_s() - t0) * 1e6);
    result_bytes += static_cast<double>(line.size());
    t0 = now_s();
    const WireMessage m = parse_wire_line(line);
    parse_us.push_back((now_s() - t0) * 1e6);
    checks.expect(m.record.has_value() &&
                      m.record->to_json(false) ==
                          layers.wire_records[i].to_json(false),
                  "dist.result_round_trip", "record " + std::to_string(i));
  }
  if (!layers.wire_cells.empty()) {
    layers.values["dist.cell_bytes"] = cell_bytes / layers.wire_cells.size();
  }
  if (!layers.wire_records.empty()) {
    layers.values["dist.result_bytes"] =
        result_bytes / layers.wire_records.size();
  }
}

void experiment_micro(Workload& w, Layers& layers) {
  {
    ScopedSpan span("experiment.record_json", "perfbench");
    for (const RunRecord& rec : layers.wire_records) {
      const double t0 = now_s();
      const std::string text = rec.to_json().dump();
      layers.samples["experiment.record_json_us"].push_back((now_s() - t0) *
                                                            1e6);
      if (text.empty()) throw std::runtime_error("empty record JSON");
    }
  }
  ScopedSpan span("experiment.expand", "perfbench");
  for (int r = 0; r < 31; ++r) {
    const double t0 = now_s();
    const std::vector<ExperimentCell> cells = w.expand();
    layers.samples["experiment.expand_ms"].push_back((now_s() - t0) * 1e3);
    if (cells.empty()) throw std::runtime_error("workload has no cells");
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void counter_metrics(Layers& layers) {
  const CounterTally& c = layers.counters;
  const double steps = static_cast<double>(layers.counter_steps);
  const double runs = static_cast<double>(layers.counter_runs);
  auto total = [&](const char* name) {
    return static_cast<double>(c.total(name));
  };
  layers.values["runtime.parks_per_step"] = ratio(total("wait.parks"), steps);
  layers.values["runtime.wakes_per_step"] = ratio(total("wait.wakes"), steps);
  layers.values["runtime.spins_per_step"] = ratio(total("wait.spins"), steps);
  layers.values["runtime.epochs_per_run"] = ratio(total("pool.epochs"), runs);
  const double hits = total("value.hash_memo_hits");
  layers.values["common.hash_memo_hit_rate"] =
      ratio(hits, hits + total("value.hash_memo_misses"));
  layers.values["common.arena_bytes_per_run"] =
      ratio(total("arena.bytes"), runs);
  layers.values["dist.requeue_share"] =
      ratio(total("shard.cells_requeued"), total("shard.cells_dispatched"));
}

Json header(const Args& a, const Workload& w, const Checks& checks) {
  return Json::object()
      .set("workload", a.workload)
      .set("seed", a.seed)
      .set("seconds", a.seconds)
      .set("trace", a.trace)
      .set("build", Json::object()
                        .set("type", PERFBENCH_BUILD_TYPE)
                        .set("compiler", PERFBENCH_COMPILER))
      .set("digest", w.digest())
      .set("checks", checks.to_json())
      .set("attempted", w.attempted())
      .set("outcomes", w.outcomes());
}

Json run_untraced(Workload& w, const Args& a) {
  Checks checks;
  warm_up(w, checks);
  std::vector<double> cell_ms;
  std::vector<double> setup_s;
  const std::vector<Call> calls =
      closed_loop(w, a.seconds, checks, cell_ms, setup_s);
  w.finish(checks);
  return header(a, w, checks)
      .set("setup_s", numbers(setup_s))
      .set("calls", calls_json(calls))
      .set("cell_ms", numbers(cell_ms))
      .set("peak_rss_kb", peak_rss_kb());
}

Json run_traced(Workload& w, const Args& a) {
  Checks checks;
  warm_up(w, checks);
  std::vector<double> cell_ms;
  Layers layers;
  // Each call k runs twice, untraced and traced, in alternating order so
  // drift over the run taxes both sides alike: their wall ratio is the
  // tracing overhead, and the untraced walls are what the parts add up
  // against. Per-step counters cover the traced calls unless the
  // workload reads them around a piece of decompose() instead.
  const bool count_calls = w.counters_from_calls();
  std::vector<Call> untraced;
  std::vector<Call> traced;
  const double loop_t0 = now_s();
  for (int k = 0; k == 0 || now_s() - loop_t0 < a.seconds; ++k) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool trace_now = (pass == 0) == (k % 2 == 1);
      set_tracing_enabled(trace_now);
      if (!trace_now) {
        untraced.push_back(w.call(k, /*reference=*/true, checks, cell_ms));
        continue;
      }
      if (count_calls) layers.counters.begin();
      traced.push_back(w.call(k, /*reference=*/false, checks, cell_ms));
      if (count_calls) {
        layers.counters.end();
        layers.counter_steps += traced.back().steps;
        layers.counter_runs += static_cast<std::uint64_t>(traced.back().cells);
      }
    }
  }
  set_tracing_enabled(true);

  double decomposed_s = 0.0;
  int decomposed = 0;
  const double t0 = now_s();
  for (std::size_t k = 0; k < untraced.size() &&
                          (k == 0 || now_s() - t0 < a.seconds / 2);
       ++k) {
    w.decompose(static_cast<int>(k), untraced[k], traced[k], checks, layers);
    decomposed_s += untraced[k].wall_s;
    ++decomposed;
  }
  snapshot_micro(layers);
  wire_micro(layers, checks);
  experiment_micro(w, layers);
  set_tracing_enabled(false);
  w.finish(checks);
  w.finish_layers(layers);
  counter_metrics(layers);

  double untraced_s = 0.0;
  double sys_s = 0.0;
  double cpu_s = 0.0;
  for (const Call& c : untraced) {
    untraced_s += c.wall_s;
    sys_s += c.sys_s;
    cpu_s += c.user_s + c.sys_s;
  }
  double traced_s = 0.0;
  for (const Call& c : traced) traced_s += c.wall_s;
  layers.values["runtime.sys_share"] = ratio(sys_s, cpu_s);
  layers.values["runtime.step_ns"] = ratio(layers.sums["run_cell_s"] * 1e9,
                                           layers.sums["run_cell_steps"]);
  if (layers.sums["history_runs"] > 0.0) {
    layers.values["history.events_per_run"] =
        layers.sums["history_events"] / layers.sums["history_runs"];
  }
  layers.values["obs.trace_overhead"] = ratio(traced_s, untraced_s);

  Json parts = Json::array();
  std::map<std::string, double> by_name;
  std::vector<std::string> order;
  for (const auto& [name, s] : layers.parts) {
    if (by_name.emplace(name, 0.0).second) order.push_back(name);
    by_name[name] += s;
  }
  for (const std::string& name : order) {
    parts.push(Json::object().set("name", name).set("s", by_name[name]));
  }

  Json values = Json::object();
  for (const auto& [name, v] : layers.values) values.set(name, v);
  Json samples = Json::object();
  for (const auto& [name, v] : layers.samples) samples.set(name, numbers(v));

  if (!a.trace_out.empty()) {
    std::vector<ProcessTrace> procs{layers.worker_traces};
    ProcessTrace driver;
    driver.pid = 1;
    driver.name = "perfbench driver (" + a.workload + ")";
    driver.doc = dump_trace_json();
    procs.insert(procs.begin(), std::move(driver));
    std::ofstream out(a.trace_out);
    out << merge_trace_docs(procs).dump() << "\n";
    if (!out) throw std::runtime_error("cannot write " + a.trace_out);
  }

  return header(a, w, checks)
      .set("layers", std::move(values))
      .set("samples", std::move(samples))
      .set("parts", std::move(parts))
      .set("decomposed_calls", decomposed)
      .set("decomposed_untraced_s", decomposed_s)
      .set("untraced_s", untraced_s)
      .set("traced_s", traced_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: built with assertions on; "
                       "only Release builds are timed\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_driver: %s build refused; only Release "
                         "builds are timed\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    const Args a = parse_args(argc, argv);
    std::unique_ptr<Workload> w = make_workload(a);
    const Json out = a.trace ? run_traced(*w, a) : run_untraced(*w, a);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
