#include "src/dist/shard.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#if defined(__linux__)
#include <sys/syscall.h>
#endif
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/common/errors.h"
#include "src/experiment/batch_runner.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace mpcn {

namespace {

// Shard-pool telemetry (src/obs/metrics.h): coordinator-side counters
// for churn and flow, worker-side counters for served work. All sidecar;
// the merged Report never sees them.
Counter& m_cells_dispatched() {
  static Counter& c = metrics_registry().counter("shard.cells_dispatched");
  return c;
}
Counter& m_cells_requeued() {
  static Counter& c = metrics_registry().counter("shard.cells_requeued");
  return c;
}
Counter& m_workers_written_off() {
  static Counter& c = metrics_registry().counter("shard.workers_written_off");
  return c;
}
Counter& m_workers_respawned() {
  static Counter& c = metrics_registry().counter("shard.workers_respawned");
  return c;
}
Counter& m_backoff_waits() {
  static Counter& c = metrics_registry().counter("shard.backoff_waits");
  return c;
}
Counter& m_garbage_lines() {
  static Counter& c = metrics_registry().counter("shard.garbage_lines");
  return c;
}
Counter& m_fallback_cells() {
  static Counter& c = metrics_registry().counter("shard.fallback_cells");
  return c;
}
Counter& m_heartbeats() {
  static Counter& c = metrics_registry().counter("shard.heartbeats");
  return c;
}
Counter& m_stale_writeoffs() {
  static Counter& c = metrics_registry().counter("shard.stale_writeoffs");
  return c;
}
Counter& m_snapshot_timeouts() {
  static Counter& c = metrics_registry().counter("shard.snapshot_timeouts");
  return c;
}
Gauge& m_queue_depth() {
  static Gauge& g = metrics_registry().gauge("shard.queue_depth");
  return g;
}
Histogram& m_cell_latency() {
  static Histogram& h = metrics_registry().histogram("shard.cell_latency_us");
  return h;
}
Counter& m_worker_cells_served() {
  static Counter& c = metrics_registry().counter("worker.cells_served");
  return c;
}
Counter& m_worker_garbage_lines() {
  static Counter& c = metrics_registry().counter("worker.garbage_lines");
  return c;
}

// The worker-side heartbeat streamer: once armed by a telemetry config
// line, a background thread beats every interval, and the worker loop
// beats after every cell reply. A beat snapshots the registry, diffs it
// against the previous beat (delta_since) and ships one telemetry line;
// beats from the thread and the loop share the seq/prev state under
// `state_mu_` and the transport under the caller's write mutex, so
// lines never interleave and seq/delta stay consistent.
class TelemetryStreamer {
 public:
  TelemetryStreamer(LineIO& io, std::mutex& write_mu)
      : io_(io), write_mu_(write_mu) {}
  ~TelemetryStreamer() { stop(); }

  // Arm (or re-arm) the heartbeat and send an immediate beat — so every
  // armed worker produces at least one telemetry line even if it never
  // receives a cell. interval_ms <= 0 arms after-cell beats only.
  void arm(std::int64_t interval_ms) {
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      armed_ = true;
      interval_ = std::chrono::milliseconds(interval_ms);
    }
    beat();
    if (interval_ms > 0 && !thread_.joinable()) {
      thread_ = std::thread([this] { loop(); });
    }
    cv_.notify_all();
  }

  // Beat once, now (no-op until armed).
  void beat() {
    std::lock_guard<std::mutex> state(state_mu_);
    const std::string line = compose_beat_locked();
    if (line.empty()) return;
    std::lock_guard<std::mutex> write(write_mu_);
    io_.write_line(line);
  }

  // Write a cell reply and, when armed, its after-cell heartbeat in one
  // coalesced write: one syscall, one coordinator wakeup — the beat
  // rides the reply instead of doubling the wire traffic per cell.
  bool reply_and_beat(const std::string& reply) {
    std::lock_guard<std::mutex> state(state_mu_);
    const std::string beat = compose_beat_locked();
    std::lock_guard<std::mutex> write(write_mu_);
    if (beat.empty()) return io_.write_line(reply);
    return io_.write_lines(reply, beat);
  }

  // Disarm and join the thread; no beats after this returns. Called
  // before a shutdown reply (the final metrics line must be the last
  // word) and before an injected SIGSTOP (the silence must be total).
  void stop() {
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      stop_ = true;
      armed_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  // Under state_mu_ (held through the write so heartbeat seq order on
  // the wire matches seq assignment). Empty string when unarmed.
  std::string compose_beat_locked() {
    {
      std::lock_guard<std::mutex> lock(cv_mu_);
      if (!armed_) return std::string();
    }
    metrics_registry().delta_json(prev_, delta_buf_);
    return telemetry_line(seq_++, static_cast<std::int64_t>(trace_now_us()),
                          delta_buf_);
  }

  void loop() {
    std::unique_lock<std::mutex> lk(cv_mu_);
    while (!cv_.wait_for(lk, interval_, [this] { return stop_; })) {
      lk.unlock();
      beat();
      lk.lock();
    }
  }

  LineIO& io_;
  std::mutex& write_mu_;
  std::mutex state_mu_;  // seq_ + prev_ + delta_buf_ (beat serialization)
  MetricsSnapshot prev_;       // updated in place by delta_json
  std::string delta_buf_;      // reused per beat; capacity amortizes
  std::int64_t seq_ = 0;
  std::mutex cv_mu_;  // armed_/interval_/stop_ + the wait
  std::condition_variable cv_;
  bool armed_ = false;
  bool stop_ = false;
  std::chrono::milliseconds interval_{0};
  std::thread thread_;
};

// A grid cell rebuilt from its spec and run. A spec that fails to
// rebuild (unknown scenario, invalid model) yields its error record: the
// spec's identity fields still label it.
RunRecord run_spec(const CellSpec& spec) {
  try {
    return run_cell(spec.to_cell());
  } catch (const std::exception& e) {
    return spec.error_record(e.what());
  }
}

}  // namespace

// --------------------------------------------------------------- worker

RangeOutcome run_schedule_range(const ScheduleRange& range,
                                std::unique_ptr<RunScratch>& scratch) {
  RangeOutcome out;
  out.steps.reserve(static_cast<std::size_t>(std::max(range.count, 0)));
  CellSpec spec = range.base;  // restamped per schedule on rebuild errors
  const int first = spec.cell_index;
  const std::uint64_t seed = spec.schedule.seed;
  ExperimentCell cell;
  std::string rebuild_error;
  try {
    cell = spec.to_cell();
    const int processes = std::max(1, static_cast<int>(cell.inputs.size()));
    if (!scratch || scratch->pool.size() < processes) {
      scratch = std::make_unique<RunScratch>(processes);
    }
    cell.options.process_pool = &scratch->pool;
  } catch (const std::exception& e) {
    rebuild_error = e.what();
  }
  for (int j = 0; j < range.count; ++j) {
    RunRecord rec;
    if (rebuild_error.empty()) {
      cell.cell_index = first + j;
      cell.schedule.seed = seed + static_cast<std::uint64_t>(j);
      cell.history = cell.check_races ? scratch->next_history() : nullptr;
      rec = run_cell(cell);
    } else {
      spec.cell_index = first + j;
      rec = spec.error_record(rebuild_error);
    }
    out.steps.push_back(rec.steps);
    // Keep what explore's accounting reads: the records of violations
    // (its oracles without the in-process spec) and schedule 0, whose
    // grant trace becomes ExploreResult::first_trace.
    if (!rec.ok() || rec.raced() || rec.cell_index == 0) {
      out.records.push_back(std::move(rec));
    }
  }
  return out;
}

void run_worker_loop(LineIO& io, const WorkerOptions& options) {
  // One mutex serializes every write: results and error lines from this
  // thread, heartbeats from the streamer thread.
  std::mutex write_mu;
  auto send = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    return io.write_line(line);
  };
  TelemetryStreamer streamer(io, write_mu);
  if (!send(hello_line())) return;
  std::unique_ptr<RunScratch> scratch;  // built by the first chunk
  int cells_received = 0;  // jobs: cell and chunk messages alike
  int cells_replied = 0;
  std::string line;
  while (io.read_line(line)) {
    WireMessage msg;
    try {
      msg = parse_wire_line(line);
    } catch (const WireError& e) {
      // Bad framing is the sender's bug; answer with a diagnostic and
      // keep serving — one garbage line must not take the worker down.
      m_worker_garbage_lines().add();
      if (!send(error_line(e.what()))) return;
      continue;
    }
    switch (msg.type) {
      case WireMessage::Type::kShutdown:
        // Quiesce the heartbeat first: the shutdown replies must be the
        // final lines on the wire. Then the opt-in telemetry exchange —
        // one snapshot of this process's counters, one span-ring dump.
        // A plain shutdown gets no reply (pre-telemetry coordinators
        // and tests see identical bytes).
        streamer.stop();
        if (msg.want_metrics) {
          send(metrics_line(metrics_registry().snapshot()));
        }
        if (msg.want_trace) {
          send(trace_line(dump_trace_json()));
        }
        return;
      case WireMessage::Type::kTelemetry:
        // Config from the coordinator: turn span recording on (exec-mode
        // workers start with tracing off) and arm the heartbeat.
        if (msg.want_trace) set_tracing_enabled(true);
        streamer.arm(msg.telemetry_interval_ms);
        break;
      case WireMessage::Type::kCell:
      case WireMessage::Type::kChunk: {
        ++cells_received;
        if (options.max_cells > 0 && cells_received >= options.max_cells) {
          return;  // injected crash: die with the job unanswered
        }
        std::string reply;
        int schedules = 1;
        if (msg.type == WireMessage::Type::kCell) {
          RunRecord rec;
          {
            ScopedSpan span("worker.cell", "shard", msg.spec->cell_index);
            rec = run_spec(*msg.spec);
          }
          reply = result_line(msg.id, rec);
        } else {
          RangeOutcome out;
          {
            ScopedSpan span("worker.cell", "shard", msg.id);
            out = run_schedule_range(*msg.range, scratch);
          }
          reply = chunk_result_line(msg.id, out);
          schedules = msg.range->count;
        }
        m_worker_cells_served().add(static_cast<std::uint64_t>(schedules));
        // Reply + after-job heartbeat in one write (beat is a no-op
        // until armed, so this is just the reply on plain runs).
        if (!streamer.reply_and_beat(reply)) return;
        ++cells_replied;
        if (options.stop_after_cells > 0 &&
            cells_replied >= options.stop_after_cells) {
          // Injected freeze BETWEEN jobs: quiesce the streamer so the
          // last wire bytes are whole lines, then stop the whole
          // process. Only heartbeat staleness can notice this — there
          // is no job outstanding for the watchdog to time out. A
          // SIGCONT would resume the loop (heartbeats stay off); the
          // coordinator's write-off SIGKILL ends it for good.
          streamer.stop();
          ::raise(SIGSTOP);
        }
        break;
      }
      case WireMessage::Type::kHello:
      case WireMessage::Type::kResult:
      case WireMessage::Type::kChunkResult:
      case WireMessage::Type::kError:
      case WireMessage::Type::kMetrics:
      case WireMessage::Type::kTrace:
        break;  // tolerated, meaningless towards a worker
    }
  }
}

// ---------------------------------------------------------- coordinator

namespace {

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;  // our end of the socketpair
  std::string inbuf;
  bool alive = false;
  bool busy = false;
  std::size_t outstanding = 0;  // cell id, valid when busy
  std::chrono::steady_clock::time_point sent_at{};
  // Health layer: the last sign of life — any bytes received, or the
  // spawn itself. Staleness is measured against this, so a worker
  // streaming heartbeats (or results) is never stale.
  std::chrono::steady_clock::time_point last_heard{};
  // Trace-merge clock alignment: added to every worker span timestamp.
  // 0 for forked workers (they inherit the coordinator's trace_now_us
  // origin); the coordinator's clock at spawn for exec'd workers (their
  // origin is their own start).
  std::int64_t clock_offset_us = 0;
  // Churn hardening: respawn attempts this slot has consumed, and the
  // scheduled relaunch (valid while respawn_pending).
  int respawns = 0;
  bool respawn_pending = false;
  std::chrono::steady_clock::time_point respawn_at{};
};

// Doubling backoff for the (attempt+1)-th respawn of a slot, capped so a
// crash-looping worker cannot push waits without bound.
std::chrono::milliseconds respawn_delay(const ShardOptions& options,
                                        int attempt) {
  constexpr std::chrono::milliseconds kCap{1000};
  std::chrono::milliseconds d = options.respawn_backoff;
  if (d <= std::chrono::milliseconds::zero()) return {};
  for (int i = 0; i < attempt && d < kCap; ++i) d *= 2;
  return std::min(d, kCap);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Wait up to `grace` for `pid` to exit; true once it has. Linux waits
// on a pidfd, which wakes the moment the child exits; elsewhere (or on a
// kernel without pidfd_open) a WNOHANG poll backs off from 20 us,
// doubling to 2 ms. A timed poll quantizes the wait: a worker whose exit
// lands just past one nap costs the next, a jump of up to 2x on small
// pools' shutdown.
bool await_exit(pid_t pid, std::chrono::milliseconds grace) {
  const auto deadline = std::chrono::steady_clock::now() + grace;
#if defined(__linux__) && defined(SYS_pidfd_open)
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd >= 0) {
    int r = 0;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd p{pidfd, POLLIN, 0};
      r = ::poll(&p, 1, static_cast<int>(std::max<std::int64_t>(
                            left.count() + 1, 0)));
      if (r >= 0 || errno != EINTR) break;
    }
    ::close(pidfd);
    return r > 0;
  }
#endif
  std::chrono::microseconds nap{20};
  int status = 0;
  for (;;) {
    if (::waitpid(pid, &status, WNOHANG) != 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(nap);
    nap = std::min(nap * 2, std::chrono::microseconds(2000));
  }
}

// Reap `pid`: give it `grace` to exit on its own, then SIGKILL.
void reap(pid_t pid, std::chrono::milliseconds grace) {
  if (pid <= 0) return;
  if (!await_exit(pid, grace)) ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);  // no-op (ECHILD) if await_exit reaped it
}

// `sibling_fds`: coordinator ends of previously spawned workers, closed
// in the child so no worker holds another worker's pipe open — otherwise
// a worker would never see EOF when the coordinator dies.
WorkerProc spawn_worker(const ShardOptions& options, int index,
                        const std::vector<int>& sibling_fds) {
  int sv[2];
#ifdef SOCK_CLOEXEC
  const int type = SOCK_STREAM | SOCK_CLOEXEC;
#else
  const int type = SOCK_STREAM;
#endif
  if (::socketpair(AF_UNIX, type, 0, sv) != 0) {
    throw std::runtime_error(std::string("shard: socketpair failed: ") +
                             std::strerror(errno));
  }
  const int quota =
      index < static_cast<int>(options.worker_max_cells.size())
          ? options.worker_max_cells[static_cast<std::size_t>(index)]
          : 0;
  const int stop_after =
      index < static_cast<int>(options.worker_stop_after.size())
          ? options.worker_stop_after[static_cast<std::size_t>(index)]
          : 0;
  // Pin the trace origin BEFORE forking: children inherit t0, so forked
  // workers' span clocks share the coordinator's origin (offset 0);
  // exec'd workers restart their clock and get this instant as offset.
  const std::int64_t spawn_clock =
      static_cast<std::int64_t>(trace_now_us());
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error(std::string("shard: fork failed: ") +
                             std::strerror(errno));
  }
  if (pid == 0) {
    ::close(sv[0]);
    for (int fd : sibling_fds) ::close(fd);
    if (!options.worker_argv.empty()) {
      ::dup2(sv[1], 0);
      ::dup2(sv[1], 1);
      if (sv[1] > 2) ::close(sv[1]);
      std::vector<std::string> args = options.worker_argv;
      if (quota > 0) {
        args.push_back("--max-cells");
        args.push_back(std::to_string(quota));
      }
      if (stop_after > 0) {
        args.push_back("--stop-after");
        args.push_back(std::to_string(stop_after));
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execvp(argv[0], argv.data());
      ::_exit(127);  // exec failed: the coordinator sees instant EOF
    }
    // Fork mode: serve straight from the forked image. _exit (not exit)
    // so the child never runs the parent's atexit/stream flushing.
    // Zero the inherited telemetry first — a forked child carries the
    // coordinator's counter values and span rings, and a worker
    // snapshot/trace must report only its own work or pool-wide views
    // double-count. The child also detaches from the coordinator's
    // event log so it never appends to the parent's file.
    metrics_registry().reset();
    reset_trace();
    close_event_log();
    FdLineIO io(sv[1], sv[1]);
    WorkerOptions wo;
    wo.max_cells = quota;
    wo.stop_after_cells = stop_after;
    run_worker_loop(io, wo);
    ::_exit(0);
  }
  ::close(sv[1]);
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  w.alive = true;
  w.last_heard = std::chrono::steady_clock::now();
  w.clock_offset_us = options.worker_argv.empty() ? 0 : spawn_clock;
  return w;
}

// Whole-line send with MSG_NOSIGNAL so a dead worker yields EPIPE, not
// a process-killing SIGPIPE.
bool send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// One job of the pool: a grid cell (count 0; the cell/result pair) or a
// schedule range starting at spec's cell_index (count >= 1; the
// chunk/chunk_result pair). The caller owns the specs.
struct PoolJob {
  const CellSpec* spec = nullptr;
  int count = 0;
};

// What the pool hands back: cell records in arrival order (a requeued
// cell may answer twice; Report::merge drops the duplicate) and range
// outcomes by job.
struct PoolResult {
  std::vector<RunRecord> records;
  std::vector<RangeOutcome> ranges;
};

void require_shards(const ShardOptions& options) {
  if (options.shards <= 0) {
    throw ProtocolError("run_sharded: need shards >= 1 (use BatchRunner "
                        "with shards = 0 for in-process runs)");
  }
}

// The coordinator loop, one for both job kinds: dispatch, requeue,
// respawn, the watchdog, stale write-off, health, harvest, the early
// stop of ranges and the in-process fallback. `jobs` is non-empty;
// `stop_after` is run_sharded_ranges' (0 for grids).
PoolResult run_pool(const std::vector<PoolJob>& jobs,
                    const ShardOptions& options, int stop_after) {
  const int shard_count =
      std::min<int>(options.shards, static_cast<int>(jobs.size()));
  std::vector<WorkerProc> workers;
  workers.reserve(static_cast<std::size_t>(shard_count));
  std::vector<int> sibling_fds;
  try {
    for (int i = 0; i < shard_count; ++i) {
      workers.push_back(spawn_worker(options, i, sibling_fds));
      sibling_fds.push_back(workers.back().fd);
    }
  } catch (...) {
    // A failed spawn (fork EAGAIN, ...) must not orphan the workers
    // already running: kill and reap them before propagating.
    for (WorkerProc& w : workers) {
      close_fd(w.fd);
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
      }
    }
    throw;
  }

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < jobs.size(); ++i) pending.push_back(i);
  std::vector<bool> seen(jobs.size(), false);
  std::size_t done = 0;
  PoolResult out;
  out.ranges.resize(jobs.size());
  // Schedules per job (a grid cell is one): what health, worker counters
  // and the progress line count.
  const auto schedules_of = [&](std::size_t id) {
    return std::max(jobs[id].count, 1);
  };
  std::size_t total_schedules = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    total_schedules += static_cast<std::size_t>(schedules_of(i));
  }
  std::size_t done_schedules = 0;

  // Early stop (ranges, stop_after > 0): `cutoff` is the stop_after-th
  // smallest violated index among the outcomes received so far. It only
  // decreases, and never drops below the caller's stop index (the same
  // rank over ALL outcomes), so a job starting past it is never
  // dispatched: it counts as done, with an empty outcome. Jobs in flight
  // are still harvested.
  std::vector<int> violated;  // sorted ascending
  int cutoff = std::numeric_limits<int>::max();
  const auto past_cutoff = [&](std::size_t id) {
    return jobs[id].spec->cell_index > cutoff;
  };
  const auto skip = [&](std::size_t id) {
    seen[id] = true;
    ++done;
    total_schedules -= static_cast<std::size_t>(schedules_of(id));
  };
  // Fold a received range outcome into the cutoff; drop the pending jobs
  // it rules out.
  const auto note_outcome = [&](const RangeOutcome& outcome) {
    if (stop_after <= 0) return;
    for (const RunRecord& rec : outcome.records) {
      if (rec.ok() && !rec.raced()) continue;  // schedule 0, kept anyway
      violated.insert(
          std::upper_bound(violated.begin(), violated.end(), rec.cell_index),
          rec.cell_index);
    }
    if (static_cast<int>(violated.size()) < stop_after) return;
    cutoff = violated[static_cast<std::size_t>(stop_after - 1)];
    std::deque<std::size_t> kept;
    for (std::size_t id : pending) {
      if (past_cutoff(id)) {
        skip(id);
      } else {
        kept.push_back(id);
      }
    }
    pending.swap(kept);
    m_queue_depth().set(static_cast<std::int64_t>(pending.size()));
  };
  // Dispatch and requeue events name a job by its first cell_index.
  const auto job_event = [&](std::size_t id, std::size_t slot) {
    return Json::object()
        .set("cell_index",
             static_cast<std::int64_t>(jobs[id].spec->cell_index))
        .set("count", static_cast<std::int64_t>(schedules_of(id)))
        .set("slot", static_cast<std::int64_t>(slot));
  };

  // The live per-slot health table, fed by heartbeats and results.
  // Slots persist across respawns; copied out to options.health at
  // return.
  std::vector<WorkerHealth> health(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    health[i].slot = static_cast<int>(i);
  }
  const bool want_worker_traces = options.worker_traces != nullptr;
  const bool stream_telemetry = options.telemetry_interval.count() > 0;
  const bool stale_enabled =
      stream_telemetry && options.heartbeat_stale_after.count() > 0;
  const auto slot_of = [&](const WorkerProc& w) {
    return static_cast<std::size_t>(&w - workers.data());
  };
  const auto age_ms = [](std::chrono::steady_clock::time_point now,
                         std::chrono::steady_clock::time_point then) {
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
            .count());
  };

  // Arm a worker's streaming telemetry and/or span recording. Nothing
  // is sent when neither is wanted, so a telemetry-off pool exchanges
  // exactly the pre-telemetry bytes.
  auto arm_telemetry = [&](WorkerProc& w) {
    if (!stream_telemetry && !want_worker_traces) return true;
    return send_line(
        w.fd,
        telemetry_request_line(options.telemetry_interval.count(),
                               want_worker_traces));
  };

  // Best-effort span salvage for a worker about to be written off: ask
  // for its rings with a short deadline. A frozen or hung worker just
  // times out; a protocol-violating (but responsive) one delivers.
  auto salvage_trace = [&](WorkerProc& w) {
    if (!send_line(w.fd, shutdown_line(false, true))) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    for (;;) {
      std::size_t nl;
      while ((nl = w.inbuf.find('\n')) != std::string::npos) {
        const std::string line = w.inbuf.substr(0, nl);
        w.inbuf.erase(0, nl + 1);
        try {
          WireMessage msg = parse_wire_line(line);
          if (msg.type == WireMessage::Type::kTrace && msg.trace_doc) {
            ProcessTrace pt;
            pt.pid = static_cast<int>(slot_of(w)) + 2;
            pt.name = "worker " + std::to_string(slot_of(w));
            pt.ts_offset_us = w.clock_offset_us;
            pt.doc = std::move(*msg.trace_doc);
            options.worker_traces->push_back(std::move(pt));
            return;
          }
        } catch (const WireError&) {
          m_garbage_lines().add();
        }
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return;
      pollfd pfd{w.fd, POLLIN, 0};
      const int timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count() +
          1);
      if (::poll(&pfd, 1, timeout_ms) <= 0) return;
      char chunk[4096];
      const ssize_t n = ::recv(w.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      w.inbuf.append(chunk, static_cast<std::size_t>(n));
    }
  };

  auto write_off = [&](WorkerProc& w, const char* why) {
    if (!w.alive) return;
    const std::size_t slot = slot_of(w);
    if (want_worker_traces) salvage_trace(w);
    w.alive = false;
    m_workers_written_off().add();
    {
      WorkerHealth& h = health[slot];
      h.written_off = true;
      h.write_off_reason = why;
      h.last_heard_age_ms =
          age_ms(std::chrono::steady_clock::now(), w.last_heard);
    }
    log_event("worker_death", Json::object()
                                  .set("slot", static_cast<std::int64_t>(slot))
                                  .set("reason", why));
    close_fd(w.fd);
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    if (w.busy) {
      w.busy = false;
      if (!seen[w.outstanding] && past_cutoff(w.outstanding)) {
        skip(w.outstanding);  // the stop moved before it while in flight
      } else if (!seen[w.outstanding]) {
        pending.push_front(w.outstanding);
        m_cells_requeued().add();
        m_queue_depth().set(static_cast<std::int64_t>(pending.size()));
        log_event("cell_requeue", job_event(w.outstanding, slot));
      }
    }
    // Schedule the slot's relaunch while respawn budget remains; the
    // backoff doubles with every attempt already spent.
    if (w.respawns < options.max_respawns) {
      const auto delay = respawn_delay(options, w.respawns);
      w.respawn_pending = true;
      w.respawn_at = std::chrono::steady_clock::now() + delay;
      m_backoff_waits().add();
      log_event("worker_backoff",
                Json::object()
                    .set("slot", static_cast<std::int64_t>(slot))
                    .set("delay_ms",
                         static_cast<std::int64_t>(delay.count())));
    }
    std::fprintf(stderr, "[shard] worker written off (%s); requeueing\n",
                 why);
  };

  // Arm the initial pool (and record its birth in the flight recorder).
  for (WorkerProc& w : workers) {
    log_event("worker_spawn",
              Json::object()
                  .set("slot", static_cast<std::int64_t>(slot_of(w)))
                  .set("pid", static_cast<std::int64_t>(w.pid)));
    if (!arm_telemetry(w)) write_off(w, "write failed");
  }

  // Progress heartbeat (stderr, opt-in): printed on result arrivals,
  // throttled so cheap cells do not flood the terminal.
  const auto progress_started = std::chrono::steady_clock::now();
  auto progress_last = progress_started;
  auto report_progress = [&] {
    if (!options.progress) return;
    const auto now = std::chrono::steady_clock::now();
    if (done < jobs.size() &&
        now - progress_last < std::chrono::milliseconds(500)) {
      return;
    }
    progress_last = now;
    const double secs =
        std::chrono::duration<double>(now - progress_started).count();
    const double rate =
        secs > 0 ? static_cast<double>(done_schedules) / secs : 0.0;
    const double eta =
        rate > 0 ? static_cast<double>(total_schedules - done_schedules) /
                       rate
                 : 0.0;
    std::fprintf(stderr,
                 "[shard] %zu/%zu cells (%.0f/s, eta %.1fs, queue %zu)\n",
                 done_schedules, total_schedules, rate, eta, pending.size());
  };

  // Returns false on a protocol violation (caller writes the worker off).
  auto handle_line = [&](WorkerProc& w, const std::string& line) -> bool {
    WireMessage msg;
    try {
      msg = parse_wire_line(line);
    } catch (const WireError& e) {
      // Count garbage before writing the worker off: a pool suffering
      // framing corruption shows up in telemetry, not only in scattered
      // stderr lines. The excerpt (wire_excerpt) says what arrived.
      m_garbage_lines().add();
      std::fprintf(stderr, "[shard] garbage line from worker: %s\n",
                   e.what());
      return false;
    }
    switch (msg.type) {
      case WireMessage::Type::kHello:
        return msg.protocol == kWireProtocolVersion;
      case WireMessage::Type::kError:
        std::fprintf(stderr, "[shard] worker reported: %s\n",
                     msg.message.c_str());
        return true;
      case WireMessage::Type::kResult:
      case WireMessage::Type::kChunkResult: {
        if (!w.busy) return false;
        const std::size_t id = w.outstanding;
        const PoolJob& job = jobs[id];
        // Only the answer to the job in flight, in its own kind.
        const bool answers_job =
            msg.type == WireMessage::Type::kResult
                ? job.count == 0 && msg.record &&
                      msg.id == static_cast<std::int64_t>(id) &&
                      msg.record->cell_index == job.spec->cell_index
                : job.count > 0 && msg.outcome &&
                      msg.id == job.spec->cell_index &&
                      msg.outcome->steps.size() ==
                          static_cast<std::size_t>(job.count);
        if (!answers_job) return false;  // an answer we never asked for
        w.busy = false;
        health[slot_of(w)].cells_served += schedules_of(id);
        const auto now = std::chrono::steady_clock::now();
        const auto latency_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - w.sent_at)
                .count();
        m_cell_latency().record(static_cast<std::uint64_t>(
            std::max<std::int64_t>(latency_us, 0)));
        if (tracing_enabled()) {
          const std::uint64_t end_us = trace_now_us();
          const auto dur = static_cast<std::uint64_t>(
              std::max<std::int64_t>(latency_us, 0));
          record_span("shard.cell", "shard",
                      end_us >= dur ? end_us - dur : 0, dur,
                      static_cast<std::int64_t>(job.spec->cell_index));
        }
        if (msg.record) out.records.push_back(std::move(*msg.record));
        if (!seen[id]) {
          if (msg.outcome) {
            note_outcome(*msg.outcome);
            out.ranges[id] = std::move(*msg.outcome);
          }
          seen[id] = true;
          ++done;
          done_schedules += static_cast<std::size_t>(schedules_of(id));
        }
        report_progress();
        return true;
      }
      case WireMessage::Type::kTelemetry: {
        // A heartbeat: fold the delta into the slot's health entry.
        // (A config line echoed back — seq < 0 — is just tolerated.)
        if (msg.telemetry_seq < 0 || !msg.snapshot) return true;
        WorkerHealth& h = health[slot_of(w)];
        ++h.heartbeats;
        h.last_seq = std::max(h.last_seq, msg.telemetry_seq);
        h.telemetry.merge(*msg.snapshot);
        m_heartbeats().add();
        return true;
      }
      case WireMessage::Type::kMetrics:
      case WireMessage::Type::kTrace:
        // A snapshot/trace outside the shutdown handshake is harmless —
        // telemetry must never kill a worker.
        return true;
      case WireMessage::Type::kCell:
      case WireMessage::Type::kChunk:
      case WireMessage::Type::kShutdown:
        return false;  // coordinator-only messages coming back at us
    }
    return false;
  };

  while (done < jobs.size()) {
    // Churn hardening: relaunch written-off slots whose backoff expired.
    // The fresh subprocess inherits the slot's fault-injection quota
    // (spawn_worker keys worker_max_cells by slot index).
    const auto respawn_now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      WorkerProc& w = workers[i];
      if (!w.respawn_pending || respawn_now < w.respawn_at) continue;
      w.respawn_pending = false;
      ++w.respawns;
      std::vector<int> live_fds;
      for (const WorkerProc& o : workers) {
        if (o.alive && o.fd >= 0) live_fds.push_back(o.fd);
      }
      try {
        const WorkerProc fresh =
            spawn_worker(options, static_cast<int>(i), live_fds);
        w.pid = fresh.pid;
        w.fd = fresh.fd;
        w.alive = true;
        w.busy = false;
        w.inbuf.clear();
        w.last_heard = fresh.last_heard;
        w.clock_offset_us = fresh.clock_offset_us;
        health[i].respawns = w.respawns;
        m_workers_respawned().add();
        log_event("worker_respawn",
                  Json::object()
                      .set("slot", static_cast<std::int64_t>(i))
                      .set("pid", static_cast<std::int64_t>(w.pid))
                      .set("attempt", static_cast<std::int64_t>(w.respawns)));
        std::fprintf(stderr,
                     "[shard] worker slot %zu respawned (attempt %d/%d)\n",
                     i, w.respawns, options.max_respawns);
        if (!arm_telemetry(w)) {
          write_off(w, "write failed");
          continue;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[shard] respawn of slot %zu failed: %s\n", i,
                     e.what());
        if (w.respawns < options.max_respawns) {
          w.respawn_pending = true;
          w.respawn_at = respawn_now + respawn_delay(options, w.respawns);
        }
      }
    }

    // Dispatch: one outstanding job per live worker; streaming the next
    // job only on completion makes the load self-balancing.
    for (WorkerProc& w : workers) {
      if (!w.alive || w.busy || pending.empty()) continue;
      const std::size_t id = pending.front();
      const PoolJob& job = jobs[id];
      const std::string line =
          job.count == 0 ? cell_line(static_cast<std::int64_t>(id), *job.spec)
                         : chunk_line(*job.spec, job.count);
      if (!send_line(w.fd, line)) {
        write_off(w, "write failed");
        continue;
      }
      pending.pop_front();
      w.busy = true;
      w.outstanding = id;
      w.sent_at = std::chrono::steady_clock::now();
      m_cells_dispatched().add();
      m_queue_depth().set(static_cast<std::int64_t>(pending.size()));
      log_event("cell_dispatch", job_event(id, slot_of(w)));
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].alive) continue;
      fds.push_back(pollfd{workers[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    if (fds.empty()) {
      // No live workers. A still-scheduled respawn means the pool is only
      // napping: sleep out the nearest backoff and loop. Otherwise the
      // pool has drained for good — fall back below.
      bool have_next = false;
      std::chrono::steady_clock::time_point next{};
      for (const WorkerProc& w : workers) {
        if (!w.respawn_pending) continue;
        if (!have_next || w.respawn_at < next) next = w.respawn_at;
        have_next = true;
      }
      if (!have_next) break;
      const auto now = std::chrono::steady_clock::now();
      if (next > now) {
        const auto wait_us =
            std::chrono::duration_cast<std::chrono::microseconds>(next -
                                                                  now)
                .count();
        ::usleep(static_cast<useconds_t>(
            std::min<long long>(wait_us + 1000, 1'100'000)));
      }
      continue;
    }

    // The watchdog deadline scales with the job's own wall_limit: a
    // worker is presumed hung only once its job has exceeded the runtime
    // the user allowed it — wall_limit per schedule, m x wall_limit for
    // a range of m — PLUS the grace period, so jobs that legitimately
    // run for minutes are never killed early.
    const auto effective_timeout_ms = [&](std::size_t id) {
      return schedules_of(id) * jobs[id].spec->wall_limit_ms +
             options.watchdog_grace.count();
    };
    int timeout_ms = -1;
    if (options.watchdog_grace.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.alive || !w.busy) continue;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - w.sent_at)
                .count();
        const long long remaining =
            effective_timeout_ms(w.outstanding) - elapsed;
        const int r = static_cast<int>(std::max<long long>(remaining, 0)) + 1;
        timeout_ms = timeout_ms < 0 ? r : std::min(timeout_ms, r);
      }
    }
    {
      // Scheduled respawns also bound the poll: a napping slot must come
      // back on time even if no worker event ever arrives.
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.respawn_pending) continue;
        const long long remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                w.respawn_at - now)
                .count();
        const int r = static_cast<int>(std::max<long long>(remaining, 0)) + 1;
        timeout_ms = timeout_ms < 0 ? r : std::min(timeout_ms, r);
      }
    }
    if (stale_enabled) {
      // Staleness deadlines bound the poll too: a frozen worker must be
      // noticed within ~heartbeat_stale_after even when nothing else
      // ever wakes the coordinator.
      const auto now = std::chrono::steady_clock::now();
      for (const WorkerProc& w : workers) {
        if (!w.alive) continue;
        const long long remaining =
            options.heartbeat_stale_after.count() -
            age_ms(now, w.last_heard);
        const int r = static_cast<int>(std::max<long long>(remaining, 0)) + 1;
        timeout_ms = timeout_ms < 0 ? r : std::min(timeout_ms, r);
      }
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    for (std::size_t k = 0; k < fds.size(); ++k) {
      WorkerProc& w = workers[owner[k]];
      if (!w.alive) continue;
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::recv(w.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        write_off(w, "eof");
        continue;
      }
      w.inbuf.append(chunk, static_cast<std::size_t>(n));
      w.last_heard = std::chrono::steady_clock::now();
      bool ok = true;
      std::size_t nl;
      while (ok && (nl = w.inbuf.find('\n')) != std::string::npos) {
        const std::string line = w.inbuf.substr(0, nl);
        w.inbuf.erase(0, nl + 1);
        ok = handle_line(w, line);
      }
      if (!ok) write_off(w, "protocol violation");
    }

    if (options.watchdog_grace.count() > 0) {
      const auto now = std::chrono::steady_clock::now();
      for (WorkerProc& w : workers) {
        if (w.alive && w.busy &&
            now - w.sent_at > std::chrono::milliseconds(
                                  effective_timeout_ms(w.outstanding))) {
          write_off(w, "cell timeout");
        }
      }
    }
    if (stale_enabled) {
      // The health layer's write-off: no sign of life — heartbeat,
      // result, anything — for heartbeat_stale_after. Unlike the
      // watchdog this also catches a worker frozen BETWEEN cells, when
      // nothing is outstanding.
      const auto now = std::chrono::steady_clock::now();
      for (WorkerProc& w : workers) {
        if (!w.alive) continue;
        const std::int64_t age = age_ms(now, w.last_heard);
        if (age <= options.heartbeat_stale_after.count()) continue;
        m_stale_writeoffs().add();
        log_event("heartbeat_gap",
                  Json::object()
                      .set("slot",
                           static_cast<std::int64_t>(slot_of(w)))
                      .set("age_ms", age));
        write_off(w, "heartbeat stale");
      }
    }
  }

  // Shutdown + telemetry harvest. The shutdown line (with its opt-in
  // metrics/trace requests) is sent to EVERY live worker up front, then
  // one combined poll loop collects the replies under PER-WORKER
  // deadlines running concurrently — total harvest wall time is ~max of
  // the deadlines, not their sum, so one slow worker cannot starve the
  // harvest of the rest. A worker that misses its own deadline counts
  // one shard.snapshot_timeouts and is reaped like any other.
  {
    const bool want_metrics = options.worker_metrics != nullptr;
    struct Pending {
      bool expecting = false;
      bool need_metrics = false;
      bool need_trace = false;
      std::optional<MetricsSnapshot> snapshot;
      std::optional<Json> trace_doc;
      std::chrono::steady_clock::time_point deadline{};
    };
    std::vector<Pending> awaiting(workers.size());
    const auto send_deadline = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      WorkerProc& w = workers[i];
      if (!w.alive) continue;
      if (!send_line(w.fd, shutdown_line(want_metrics, want_worker_traces)) ||
          (!want_metrics && !want_worker_traces)) {
        continue;  // nothing to await from this worker
      }
      Pending& p = awaiting[i];
      p.expecting = true;
      p.need_metrics = want_metrics;
      p.need_trace = want_worker_traces;
      p.deadline = send_deadline + options.snapshot_deadline;
    }
    for (;;) {
      // Drain buffered lines first, then poll only the still-owed fds.
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Pending& p = awaiting[i];
        if (!p.expecting) continue;
        WorkerProc& w = workers[i];
        std::size_t nl;
        while (p.expecting &&
               (nl = w.inbuf.find('\n')) != std::string::npos) {
          const std::string line = w.inbuf.substr(0, nl);
          w.inbuf.erase(0, nl + 1);
          try {
            WireMessage msg = parse_wire_line(line);
            if (msg.type == WireMessage::Type::kMetrics && msg.snapshot) {
              p.snapshot = std::move(*msg.snapshot);
              p.need_metrics = false;
            } else if (msg.type == WireMessage::Type::kTrace &&
                       msg.trace_doc) {
              p.trace_doc = std::move(*msg.trace_doc);
              p.need_trace = false;
            } else if (msg.type == WireMessage::Type::kTelemetry &&
                       msg.telemetry_seq >= 0 && msg.snapshot) {
              // A final heartbeat racing the shutdown: fold it.
              WorkerHealth& h = health[i];
              ++h.heartbeats;
              h.last_seq = std::max(h.last_seq, msg.telemetry_seq);
              h.telemetry.merge(*msg.snapshot);
              m_heartbeats().add();
            }
            // Late results/errors racing the shutdown: skip.
          } catch (const WireError&) {
            m_garbage_lines().add();
          }
          if (!p.need_metrics && !p.need_trace) p.expecting = false;
        }
      }
      std::vector<pollfd> pfds;
      std::vector<std::size_t> pown;
      int timeout_ms = -1;
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Pending& p = awaiting[i];
        if (!p.expecting) continue;
        if (now >= p.deadline) {
          p.expecting = false;
          m_snapshot_timeouts().add();
          continue;
        }
        pfds.push_back(pollfd{workers[i].fd, POLLIN, 0});
        pown.push_back(i);
        const int r = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                p.deadline - now)
                .count() +
            1);
        timeout_ms = timeout_ms < 0 ? r : std::min(timeout_ms, r);
      }
      if (pfds.empty()) break;
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerProc& w = workers[pown[k]];
        char chunk[4096];
        const ssize_t n = ::recv(w.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          // EOF with replies still owed: the worker died mid-harvest.
          awaiting[pown[k]].expecting = false;
          continue;
        }
        w.inbuf.append(chunk, static_cast<std::size_t>(n));
      }
    }
    // Deliver in slot order, so the harvested vectors are deterministic
    // regardless of reply arrival order.
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Pending& p = awaiting[i];
      if (p.snapshot && options.worker_metrics != nullptr) {
        options.worker_metrics->push_back(std::move(*p.snapshot));
      }
      if (p.trace_doc && want_worker_traces) {
        ProcessTrace pt;
        pt.pid = static_cast<int>(i) + 2;  // pid 1 = coordinator
        pt.name = "worker " + std::to_string(i);
        pt.ts_offset_us = workers[i].clock_offset_us;
        pt.doc = std::move(*p.trace_doc);
        options.worker_traces->push_back(std::move(pt));
      }
    }
    // Close every fd before reaping any worker, so the whole pool sees
    // EOF and exits concurrently.
    for (WorkerProc& w : workers) {
      if (!w.alive) continue;
      health[slot_of(w)].last_heard_age_ms =
          age_ms(std::chrono::steady_clock::now(), w.last_heard);
      log_event("worker_shutdown",
                Json::object()
                    .set("slot", static_cast<std::int64_t>(slot_of(w)))
                    .set("cells_served", health[slot_of(w)].cells_served));
      close_fd(w.fd);
    }
    for (WorkerProc& w : workers) {
      if (!w.alive) continue;
      reap(w.pid, std::chrono::milliseconds(500));
      w.pid = -1;
      w.alive = false;
    }
  }

  // Degraded mode: every worker died with every respawn budget spent and
  // jobs unserved. Either fail cleanly or run the remainder in-process,
  // through the same runners the workers use — a sharded run may get
  // slower, but it never loses cells.
  if (done < jobs.size()) {
    const std::size_t unserved = total_schedules - done_schedules;
    if (!options.fallback_in_process) {
      throw ProtocolError(
          "run_sharded: worker pool drained (" +
          std::to_string(workers.size()) + " slot(s) dead after " +
          std::to_string(options.max_respawns) +
          " respawn(s) each) with " + std::to_string(unserved) +
          " cells unserved and fallback_in_process disabled");
    }
    std::fprintf(stderr,
                 "[shard] %zu cells had no surviving worker; running them "
                 "in-process\n",
                 unserved);
    std::unique_ptr<RunScratch> scratch;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (seen[i]) continue;
      if (past_cutoff(i)) {
        skip(i);
        continue;
      }
      const PoolJob& job = jobs[i];
      if (job.count == 0) {
        out.records.push_back(run_spec(*job.spec));
      } else {
        out.ranges[i] =
            run_schedule_range(ScheduleRange{*job.spec, job.count}, scratch);
        note_outcome(out.ranges[i]);
      }
      seen[i] = true;
      ++done;
      done_schedules += static_cast<std::size_t>(schedules_of(i));
      m_fallback_cells().add(static_cast<std::uint64_t>(schedules_of(i)));
      report_progress();
    }
  }

  if (options.health != nullptr) *options.health = std::move(health);
  return out;
}

}  // namespace

Report run_sharded(const std::vector<ExperimentCell>& cells,
                   const ShardOptions& options) {
  require_shards(options);
  // Serialize every cell up front: fail fast on non-wire-serializable
  // grids before any process is forked.
  std::vector<CellSpec> specs;
  specs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellSpec spec = CellSpec::from_cell(cells[i]);
    if (spec.cell_index != static_cast<int>(i)) {
      throw ProtocolError(
          "run_sharded: cells must be grid-stamped with cell_index == "
          "position (Experiment::cells() provides this); cell " +
          std::to_string(i) + " has cell_index " +
          std::to_string(spec.cell_index));
    }
    specs.push_back(std::move(spec));
  }
  Report arrivals;
  if (!cells.empty()) {
    std::vector<PoolJob> jobs;
    jobs.reserve(specs.size());
    for (const CellSpec& spec : specs) jobs.push_back(PoolJob{&spec, 0});
    arrivals.records = run_pool(jobs, options, 0).records;
  }
  Report merged = Report::merge({arrivals});
  merged.title = derive_report_title(cells, options.title);
  if (merged.records.size() != cells.size()) {
    throw ProtocolError("run_sharded: merged report has " +
                        std::to_string(merged.records.size()) +
                        " records for " + std::to_string(cells.size()) +
                        " cells");
  }
  return merged;
}

std::vector<RangeOutcome> run_sharded_ranges(
    const std::vector<ScheduleRange>& ranges, const ShardOptions& options,
    int stop_after) {
  require_shards(options);
  std::vector<PoolJob> jobs;
  jobs.reserve(ranges.size());
  for (const ScheduleRange& r : ranges) {
    if (r.count < 1) {
      throw ProtocolError("run_sharded_ranges: a range needs count >= 1");
    }
    jobs.push_back(PoolJob{&r.base, r.count});
  }
  if (jobs.empty()) return {};
  return run_pool(jobs, options, stop_after).ranges;
}

}  // namespace mpcn
