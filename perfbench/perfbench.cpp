// perfbench — the repository benchmark: one workload per process.
//
//   perfbench --workload pipeline_512|room_256|fleet_4x256 --seed N
//             --seconds S [--trace 0|1] [--trace-out FILE]
//
// Each workload drives the program only through its public surfaces
// (app::StentBoostApp, exec::FramePipeline, exec::Executor,
// serve::StreamServer, plat::ThreadPool, obs::http_get) and measures every
// layer from outside: it times those calls and reads their public outputs
// (FrameRecord, ExecutedFrame, ledger rows, FleetReport, fleet_status()).
//
// A run is a series of exams (synthetic sequences seeded from --seed): every
// exam constructs the program afresh (its set-up time is one setup_s sample)
// and then runs a fixed amount of timed work.  pipeline_512 and room_256
// repeat exams until --seconds of timed work are done; fleet_4x256 serves a
// fixed number of drains sized from --seconds.  After the timed work the
// outputs are checked against serial references; a mismatch, a throw or an
// unserved frame counts as a failed frame and makes the exit code non-zero.
//
// --trace 0 measures the end-to-end metrics.  --trace 1 additionally keeps
// bench-owned spans in memory around each call into a layer, runs the
// shared-pool probe and the render sample, writes the spans to --trace-out
// at exit and prints the per-layer metrics.  The last stdout line is one
// JSON object with every metric the run computed.
//
// Workload constants are fixed here (and recorded in BENCHMARK.json); no
// deadline or frame count is calibrated from the code under test.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "app/stentboost.hpp"
#include "exec/executor.hpp"
#include "exec/frame_pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry_server.hpp"
#include "platform/thread_pool.hpp"
#include "runtime/qos.hpp"
#include "serve/stream_server.hpp"

namespace {

using tc::f64;
using tc::i32;
using tc::i64;
using tc::u64;
using tc::usize;
namespace app = tc::app;
namespace exec = tc::exec;
namespace graph = tc::graph;
namespace img = tc::img;
namespace obs = tc::obs;
namespace plat = tc::plat;
namespace rt = tc::rt;
namespace serve = tc::serve;

// --- workload constants ------------------------------------------------------

// pipeline_512: pre-rendered 512² exams through StentBoostApp +
// FramePipeline; data-parallel nodes striped ×4 on a 4-thread pool.
constexpr i32 kPipeSize = 512;
constexpr i32 kPipeFrames = 60;  // frames per exam (bolus in at frame 30)
constexpr i32 kPipeBatch = 4;    // exams rendered and checked together
constexpr i32 kPipeInFlight = 2;
constexpr i32 kPipeStripes = 4;
constexpr i32 kPipeThreads = 4;
constexpr f64 kPipeDeadlineMs = 100.0;  // lateness accounting only (policy Run)

// room_256: one Executor stepped open-loop at the camera rate.
constexpr i32 kRoomSize = 256;
constexpr f64 kRoomFps = 20.0;
constexpr f64 kRoomDeadlineMs = 8.0;  // graph deadline near the serial cost
constexpr i32 kRoomWarmup = 8;
constexpr i32 kRoomFrames = 60;  // timed frames per exam (3 s of camera)
constexpr i32 kRoomThreads = 4;

// fleet_4x256: one StreamServer, four weighted streams + one infeasible.
constexpr i32 kFleetSize = 256;
constexpr i32 kFleetStreams = 4;
constexpr f64 kFleetWeights[kFleetStreams] = {2.0, 1.0, 2.0, 1.0};
// One 30 fps camera period.  Cold admission prices a stream from a 6-frame
// serial probe, one sample per node; a scheduler stall inside one sample
// made admission reject a feasible stream at 15 and at 20 ms.
constexpr f64 kFleetDeadlineMs = 1000.0 / 30.0;
constexpr f64 kFleetInfeasibleDivisor = 64.0;
constexpr i32 kFleetFrames = 120;  // frames per stream per drain
// Drains per second of --seconds.  The fleet serves a fixed amount of work
// (about 2.5 s per drain on a 4-core host) rather than filling the time:
// the global tracer grows with every frame served, so a time-filled run
// would charge a faster program more peak RSS.
constexpr f64 kFleetDrainsPerSecond = 0.4;
constexpr i32 kFleetThreads = 4;
constexpr i32 kFleetSlots = 4;
constexpr i32 kScrapePeriodMs = 1000;
constexpr i32 kProbePeriodMs = 5;

// Frames whose render time the traced run samples after the timed section.
constexpr i32 kRenderSample = 24;

// --- clock, statistics -------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

f64 now_ms() {
  return std::chrono::duration<f64, std::milli>(Clock::now() - g_epoch)
      .count();
}

void sleep_until_ms(f64 t_ms) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<f64, std::milli>(t_ms)));
}

/// Linearly interpolated percentile, p in [0, 100]; 0 for no samples.  The
/// bench keeps its own statistics so that no change to the program can
/// change how it is measured.
f64 quantile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 pos = p / 100.0 * static_cast<f64>(v.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

f64 median(const std::vector<f64>& v) { return quantile(v, 50.0); }

/// The tail: p95, or the highest of p90, p75 when fewer than 40 samples lie
/// beyond p95.  On a shared 4-core host a few percent of frames are hit by
/// scheduler stalls; a percentile inside that population (or one estimated
/// from a few samples) is set by the stalls and does not repeat from run to
/// run.
struct Tail {
  f64 pct = 95.0;
  f64 value = 0.0;
  usize beyond = 0;
  usize n = 0;
};

Tail tail_of(const std::vector<f64>& v) {
  Tail t;
  t.n = v.size();
  for (f64 p : {95.0, 90.0, 75.0}) {
    t.pct = p;
    t.beyond = static_cast<usize>(
        std::floor(static_cast<f64>(v.size()) * (100.0 - p) / 100.0));
    if (t.beyond >= 40) break;
  }
  t.value = quantile(v, t.pct);
  return t;
}

/// Hand the memory freed by the previous exam back to the system before the
/// next one is built, so that peak RSS measures what the program holds and
/// not how the allocator happened to reuse the bench's per-exam churn.
void release_free_memory() { malloc_trim(0); }

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
  std::string note;
};

class Results {
 public:
  void add(std::string name, f64 value, std::string unit,
           std::string note = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void add_tail(const std::string& name, const Tail& t,
                const std::string& unit) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%.1f, %zu of %zu samples beyond", t.pct,
                  t.beyond, t.n);
    add(name, t.value, unit, note);
  }
  /// A failed output check or a throw; `frames` frames count as failed.
  void fail(const std::string& why, i64 frames) {
    failed += frames;
    if (errors_.size() < 20) errors_.push_back(why);
    ++error_count_;
  }

  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const { return error_count_ == 0; }

  void print() const {
    for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
    for (const std::string& e : errors_) std::printf("! %s\n", e.c_str());
    if (error_count_ > static_cast<i64>(errors_.size())) {
      std::printf("! ... %lld more check failures\n",
                  static_cast<long long>(error_count_ - errors_.size()));
    }
    for (const Metric& m : metrics_) {
      std::printf("%-34s %14.4f %-9s%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (usize i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  i64 error_count_ = 0;
};

// --- bench-owned spans (traced run only) ----------------------------------

struct Span {
  const char* name = "";
  f64 t0 = 0.0;
  f64 t1 = 0.0;
  i64 id = -1;
};

/// In-memory span log around calls into the program's layers; a no-op when
/// tracing is off.  Written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  void add(const char* name, f64 t0, f64 t1, i64 id = -1) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t0, t1, id});
  }

  [[nodiscard]] std::vector<f64> durations(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<f64> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.t1 - s.t0);
    }
    return out;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path);
    for (const Span& s : spans_) {
      os << "{\"name\": \"" << s.name << "\", \"t0_ms\": " << s.t0
         << ", \"t1_ms\": " << s.t1 << ", \"id\": " << s.id << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  bool on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- helpers ----------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Run fn(0) .. fn(n-1) on up to four bench threads (input generation and
/// output checks, outside every timed section).
void parallel_for(i32 n, const std::function<void(i32)>& fn) {
  std::atomic<i32> next{0};
  std::vector<std::thread> workers;
  for (i32 w = 0; w < std::min(n, 4); ++w) {
    workers.emplace_back([&] {
      for (i32 i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

/// Seed of the k-th exam (sequence) of a run: every run covers several
/// synthetic exams, so one seed's scenario mix does not set the result.
u64 exam_seed(u64 seed, i32 k) { return seed * 1000 + static_cast<u64>(k); }

/// Traced run: time AngioSequence::render serially for up to kRenderSample
/// frame indices of one of the run's sequences.
void sample_render(const img::SequenceParams& params, SpanLog& spans) {
  if (!spans.on()) return;
  const img::AngioSequence sequence(params);
  const i32 step = std::max(1, params.frames / kRenderSample);
  for (i32 t = 0; t < params.frames; t += step) {
    const f64 t0 = now_ms();
    const img::ImageU16 frame = sequence.render(t);
    spans.add("imaging.render", t0, now_ms(), t);
    if (frame.empty()) std::abort();
  }
}

u64 image_hash(const img::ImageU16& image) {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<u64>(image.width()));
  mix(static_cast<u64>(image.height()));
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  const usize n = image.bytes();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 word = 0;
    std::memcpy(&word, bytes + i, 8);
    mix(word);
  }
  for (; i < n; ++i) mix(bytes[i]);
  return h;
}

/// Empty string when every deterministic field of the two records matches
/// (host_ms measures the host and is excluded).
std::string record_mismatch(const graph::FrameRecord& a,
                            const graph::FrameRecord& b) {
  auto at = [&](const char* what) {
    return "frame " + std::to_string(a.frame) + ": " + what + " differs";
  };
  if (a.frame != b.frame) return at("frame index");
  if (a.scenario != b.scenario) return at("scenario");
  if (a.latency_ms != b.latency_ms) return at("simulated latency");
  if (a.roi_pixels != b.roi_pixels) return at("roi_pixels");
  if (a.tasks.size() != b.tasks.size()) return at("task count");
  for (usize i = 0; i < a.tasks.size(); ++i) {
    const graph::TaskExecution& x = a.tasks[i];
    const graph::TaskExecution& y = b.tasks[i];
    const img::WorkReport& u = x.work;
    const img::WorkReport& v = y.work;
    if (x.node != y.node || x.executed != y.executed ||
        x.simulated_ms != y.simulated_ms || u.pixel_ops != v.pixel_ops ||
        u.feature_ops != v.feature_ops || u.bytes_read != v.bytes_read ||
        u.bytes_written != v.bytes_written ||
        u.input_bytes != v.input_bytes ||
        u.intermediate_bytes != v.intermediate_bytes ||
        u.output_bytes != v.output_bytes || u.items != v.items ||
        u.data_parallel != v.data_parallel) {
      return at(std::string(app::node_name(x.node)).c_str());
    }
  }
  return "";
}

/// Per-node host times and run counts, from FrameRecords or ledger rows.
struct NodeTimes {
  std::array<std::vector<f64>, app::kNodeCount> ms;
  std::array<i64, app::kNodeCount> runs{};

  void add(i32 node, f64 host_ms) {
    if (node < 0 || node >= app::kNodeCount) return;
    ms[static_cast<usize>(node)].push_back(host_ms);
  }
  void count(i32 node) {
    if (node >= 0 && node < app::kNodeCount) ++runs[static_cast<usize>(node)];
  }

  /// imaging.<NODE>.p50_ms / .runs (`runs` count the first exam or drain).
  void report(Results& res) const {
    for (i32 n = 0; n < app::kNodeCount; ++n) {
      const std::string base = "imaging." + std::string(app::node_name(n));
      res.add(base + ".p50_ms", median(ms[static_cast<usize>(n)]), "ms");
      res.add(base + ".runs", static_cast<f64>(runs[static_cast<usize>(n)]),
              "count", "first exam or drain");
    }
  }
};

/// Prediction-accuracy and node-time samples from settled ledger rows.
struct LedgerStats {
  NodeTimes nodes;
  std::vector<f64> cpu_ape;
  std::vector<f64> mem_ape;
  std::vector<f64> frame_ape;  ///< frame sums of predicted vs measured CPU
  /// Per-frame graph time: the sum of the executed nodes' measured CPU rows,
  /// which is the executor's measured_host_ms.
  std::vector<f64> frame_ms;
  i64 frames = 0;
  i64 striped_frames = 0;
  i64 rows = 0;

  void add(const std::vector<obs::LedgerRow>& rows_in, bool count_runs) {
    using R = obs::LedgerResource;
    rows += static_cast<i64>(rows_in.size());
    // Rows arrive grouped by (stream, frame).
    usize i = 0;
    while (i < rows_in.size()) {
      usize j = i;
      f64 pred_sum = 0.0;
      f64 meas_sum = 0.0;
      bool all_pred = true;
      bool striped = false;
      for (; j < rows_in.size() && rows_in[j].frame == rows_in[i].frame &&
             rows_in[j].stream == rows_in[i].stream;
           ++j) {
        const obs::LedgerRow& r = rows_in[j];
        if (r.stripes > 1) striped = true;
        if (r.has_meas(R::CpuMs)) {
          nodes.add(r.node, r.meas[static_cast<usize>(R::CpuMs)]);
          if (count_runs) nodes.count(r.node);
          meas_sum += r.meas[static_cast<usize>(R::CpuMs)];
          if (r.has_pred(R::CpuMs)) {
            pred_sum += r.pred[static_cast<usize>(R::CpuMs)];
          } else {
            all_pred = false;
          }
        }
        if (const auto e = r.error_pct(R::CpuMs)) {
          cpu_ape.push_back(std::abs(*e));
        }
        if (const auto e = r.error_pct(R::MemBytes)) {
          mem_ape.push_back(std::abs(*e));
        }
      }
      ++frames;
      frame_ms.push_back(meas_sum);
      if (striped) ++striped_frames;
      if (all_pred && pred_sum > 0.0 && meas_sum > 0.0) {
        frame_ape.push_back(100.0 * std::abs(pred_sum - meas_sum) / meas_sum);
      }
      i = j;
    }
  }

  void report_tripleC(Results& res) const {
    res.add("tripleC.node_cpu_ape.p50_pct", median(cpu_ape), "%");
    res.add("tripleC.node_cpu_ape.p95_pct", quantile(cpu_ape, 95.0), "%");
    res.add("tripleC.node_mem_ape.p50_pct", median(mem_ape), "%");
  }
};

/// Shared-pool probe: run one batch of `nproc` empty jobs through the pool
/// and return how long run_all blocked.
f64 pool_probe(plat::ThreadPool& pool, SpanLog& spans) {
  std::vector<std::function<void()>> jobs(
      std::max<usize>(1, std::thread::hardware_concurrency()), [] {});
  const f64 t0 = now_ms();
  pool.run_all(std::move(jobs));
  const f64 t1 = now_ms();
  spans.add("platform.pool_probe", t0, t1);
  return t1 - t0;
}

/// The end-to-end frame-outcome metrics every workload reports once its
/// output checks are done: `late` frames the program flagged late against
/// the workload's fixed deadline, `degraded` frames it served below full
/// quality, res.failed frames that failed the output check or never came.
void report_outcomes(Results& res, i64 late, i64 degraded) {
  const f64 n = static_cast<f64>(std::max<i64>(1, res.attempted));
  const f64 failed = static_cast<f64>(res.failed);
  res.add("frames_ok_pct",
          100.0 * (n - static_cast<f64>(late + degraded) - failed) / n, "%",
          "100 - deadline_miss - degraded - failed");
  res.add("deadline_miss_pct", 100.0 * (static_cast<f64>(late) + failed) / n,
          "%", "late or failed");
  res.add("degraded_pct", 100.0 * static_cast<f64>(degraded) / n, "%");
  res.add("frames_failed_pct", 100.0 * failed / n, "%");
}

// --- pipeline_512 ------------------------------------------------------------

void run_pipeline(const Options& opt, Results& res, SpanLog& spans) {
  app::StripePlan plan = app::serial_plan();
  for (i32 n = 0; n < app::kNodeCount; ++n) {
    if (app::node_data_parallel(n)) plan[static_cast<usize>(n)] = kPipeStripes;
  }
  const usize n = static_cast<usize>(kPipeFrames);
  auto exam_config = [&](i32 k) {
    return app::StentBoostConfig::make(kPipeSize, kPipeSize, kPipeFrames,
                                       exam_seed(opt.seed, k));
  };

  struct Exam {
    std::vector<graph::FrameRecord> records;
    std::vector<u64> hashes;
    std::vector<std::string> errors;
    f64 serial_dp_ms = 0.0;
    f64 striped_dp_ms = 0.0;
  };
  std::vector<Exam> exams;  // exams whose timed pass finished
  std::vector<f64> setup_s, latency, in_flight, node_sum, backpressure;
  NodeTimes nodes;
  i32 started = 0;
  i64 frames_done = 0;
  i64 late = 0;
  f64 timed_ms = 0.0;

  // A throw ends the run: it has failed, and more exams would not change
  // that.
  while (res.correct() && (started == 0 || timed_ms < opt.seconds * 1000.0)) {
    release_free_memory();
    // Input generation for the next batch of exams, before any timing.
    std::vector<std::vector<img::ImageU16>> batch(
        static_cast<usize>(kPipeBatch));
    parallel_for(kPipeBatch, [&](i32 i) {
      const img::AngioSequence sequence(exam_config(started + i).sequence);
      for (i32 t = 0; t < kPipeFrames; ++t) {
        batch[static_cast<usize>(i)].push_back(sequence.render(t));
      }
    });

    for (const std::vector<img::ImageU16>& frames : batch) {
      if (started > 0 && timed_ms >= opt.seconds * 1000.0) break;
      const i32 k = started++;
      res.attempted += kPipeFrames;
      Exam exam;
      exam.hashes.assign(n, 0);
      std::vector<f64> submit_at(n, 0.0), admit_at(n, 0.0), retire_at(n, 0.0);
      try {
        const f64 t0 = now_ms();
        plat::ThreadPool pool(kPipeThreads);
        app::StentBoostApp app(exam_config(k), &pool);
        app.set_stripe_plan(plan);
        exec::FramePipelineConfig pc;
        pc.frames_in_flight = kPipeInFlight;
        pc.deadline_ms = kPipeDeadlineMs;
        pc.on_admit = [&](i32 f) {
          if (f >= 0 && f < kPipeFrames) {
            admit_at[static_cast<usize>(f)] = now_ms();
          }
        };
        // Runs on the back-stage thread right after retire_frame: the
        // retired context's output is not written again until that thread
        // runs a later frame's back end.
        pc.on_retire = [&](const graph::FrameRecord& r) {
          if (r.frame < 0 || r.frame >= kPipeFrames) return;
          retire_at[static_cast<usize>(r.frame)] = now_ms();
          exam.hashes[static_cast<usize>(r.frame)] =
              image_hash(app.last_output());
        };
        exec::FramePipeline pipe(app, pc);
        const f64 t1 = now_ms();
        setup_s.push_back((t1 - t0) / 1000.0);

        for (i32 t = 0; t < kPipeFrames; ++t) {
          const f64 s0 = now_ms();
          submit_at[static_cast<usize>(t)] = s0;
          if (!pipe.submit(t, frames[static_cast<usize>(t)])) {
            throw std::runtime_error("submit refused frame " +
                                     std::to_string(t));
          }
          spans.add("exec.submit", s0, now_ms(), t);
        }
        pipe.drain();
        timed_ms += now_ms() - t1;

        const exec::PipelineStats stats = pipe.stats();
        late += stats.deadline_misses;
        backpressure.push_back(static_cast<f64>(stats.backpressure_events));
        exam.records = pipe.take_records();
      } catch (const std::exception& e) {
        res.fail(std::string("pipeline_512 exam threw: ") + e.what(),
                 kPipeFrames);
        exams.emplace_back();  // keeps exam k at index k; nothing to check
        break;
      }
      for (const graph::FrameRecord& r : exam.records) {
        if (r.frame < 0 || r.frame >= kPipeFrames) continue;
        const usize f = static_cast<usize>(r.frame);
        ++frames_done;
        latency.push_back(retire_at[f] - submit_at[f]);
        f64 sum = 0.0;
        for (const graph::TaskExecution& e : r.tasks) {
          if (!e.executed) continue;
          sum += e.host_ms;
          if (spans.on()) {
            nodes.add(e.node, e.host_ms);
            if (k == 0) nodes.count(e.node);
          }
        }
        in_flight.push_back(retire_at[f] - admit_at[f]);
        node_sum.push_back(sum);
        spans.add("app.in_flight", admit_at[f], retire_at[f], r.frame);
      }
      exams.push_back(std::move(exam));
    }
  }
  res.add("peak_rss_mb", peak_rss_mb(), "MB",
          "getrusage max RSS before the checks");

  // Output check: a serial reference (process_frame renders the same input;
  // same stripe plan, so the simulated costs agree; no pool, so instances
  // run one after another) must match every deterministic record field and
  // every displayed image.  Its node times are the stripe-efficiency
  // baseline.
  parallel_for(static_cast<i32>(exams.size()), [&](i32 k) {
    Exam& exam = exams[static_cast<usize>(k)];
    if (exam.records.empty()) return;  // the pass threw, already counted
    app::StentBoostApp ref(exam_config(k));
    ref.set_stripe_plan(plan);
    for (usize f = 0; f < n; ++f) {
      const graph::FrameRecord r = ref.process_frame(static_cast<i32>(f));
      std::string why;
      if (f >= exam.records.size()) {
        why = "frame " + std::to_string(f) + " not produced";
      } else {
        why = record_mismatch(r, exam.records[f]);
        // A frame whose ZOOM did not run (registration failed) shows no
        // new image, so only produced images are compared.
        const graph::TaskExecution* zoom = r.find(app::kZoom);
        if (why.empty() && zoom != nullptr && zoom->executed &&
            exam.hashes[f] != image_hash(ref.last_output())) {
          why = "frame " + std::to_string(f) + ": output image differs";
        }
        for (const graph::TaskExecution& e : r.tasks) {
          if (e.executed && app::node_data_parallel(e.node)) {
            exam.serial_dp_ms += e.host_ms;
          }
        }
        for (const graph::TaskExecution& e : exam.records[f].tasks) {
          if (e.executed && app::node_data_parallel(e.node)) {
            exam.striped_dp_ms += e.host_ms;
          }
        }
      }
      if (!why.empty()) {
        exam.errors.push_back("exam " + std::to_string(k) + " " + why);
      }
    }
  });
  f64 serial_dp = 0.0;
  f64 striped_dp = 0.0;
  for (const Exam& exam : exams) {
    for (const std::string& why : exam.errors) {
      res.fail("pipeline_512 " + why, 1);
    }
    serial_dp += exam.serial_dp_ms;
    striped_dp += exam.striped_dp_ms;
  }

  res.add("throughput_fps",
          timed_ms > 0.0 ? 1000.0 * static_cast<f64>(frames_done) / timed_ms
                         : 0.0,
          "frames/s",
          std::to_string(frames_done) + " frames, " + std::to_string(started) +
              " exams");
  res.add("frame_latency_p50_ms", median(latency), "ms", "submit -> retire");
  res.add_tail("frame_latency_tail_ms", tail_of(latency), "ms");
  report_outcomes(res, late, 0);
  res.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");

  if (!spans.on()) return;
  sample_render(app::StentBoostConfig::make(kPipeSize, kPipeSize, kPipeFrames,
                                            exam_seed(opt.seed, 0))
                    .sequence,
                spans);
  res.add("imaging.render.p50_ms", median(spans.durations("imaging.render")),
          "ms", "sampled after the timed section");
  nodes.report(res);
  std::vector<f64> non_node;
  for (usize i = 0; i < in_flight.size(); ++i) {
    non_node.push_back(in_flight[i] - node_sum[i]);
  }
  res.add("app.in_flight.p50_ms", median(in_flight), "ms",
          "on_admit -> on_retire");
  res.add("app.node_sum.p50_ms", median(node_sum), "ms");
  res.add("app.non_node.p50_ms", median(non_node), "ms");
  res.add("platform.stripe_efficiency",
          striped_dp > 0.0 ? serial_dp / (kPipeStripes * striped_dp) : 0.0,
          "ratio", "serial ms / (stripes x striped ms), data-parallel nodes");
  res.add("exec.submit_block.p50_ms", median(spans.durations("exec.submit")),
          "ms");
  res.add("exec.backpressure_events", median(backpressure), "count",
          "per exam");
}

// --- room_256 ---------------------------------------------------------------

void run_room(const Options& opt, Results& res, SpanLog& spans) {
  const i32 total = kRoomWarmup + kRoomFrames;
  exec::ExecutorConfig ec;
  ec.worker_threads = kRoomThreads;
  ec.deadline_ms = kRoomDeadlineMs;
  ec.policy = exec::DeadlinePolicy::Degrade;
  ec.warmup_frames = kRoomWarmup;
  ec.ledger.enabled = true;
  ec.ledger.capacity = 0;  // keep every row of the exam
  const f64 period = 1000.0 / kRoomFps;

  struct Exam {
    app::StentBoostConfig cfg;
    std::vector<exec::ExecutedFrame> executed;
    std::vector<std::string> errors;
  };
  std::vector<Exam> exams;
  std::vector<f64> setup_s, latency, lag, step_ms, outside, forecast_ape,
      repartitions, probe;
  i64 frames_done = 0;
  i64 late = 0;
  i64 degraded = 0;
  i64 striped = 0;
  i64 managed = 0;
  f64 timed_ms = 0.0;
  LedgerStats ledger;

  while (exams.empty() || timed_ms < opt.seconds * 1000.0) {
    release_free_memory();
    res.attempted += kRoomFrames;
    Exam exam;
    exam.cfg = app::StentBoostConfig::make(
        kRoomSize, kRoomSize, total,
        exam_seed(opt.seed, static_cast<i32>(exams.size())));
    try {
      const f64 t0 = now_ms();
      exec::Executor ex(exam.cfg, ec);
      spans.add("analysis.startup", t0, now_ms());
      for (i32 t = 0; t < kRoomWarmup; ++t) exam.executed.push_back(ex.step(t));
      const f64 t1 = now_ms();
      setup_s.push_back((t1 - t0) / 1000.0);

      f64 last_end = t1;
      for (i32 k = 0; k < kRoomFrames; ++k) {
        const f64 due = t1 + period * k;
        // Traced run: probe the executor's pool in the idle gap, on the
        // generator thread, so nothing overlaps it.
        if (spans.on() && due - now_ms() > 3.0) {
          probe.push_back(pool_probe(ex.pool(), spans));
        }
        sleep_until_ms(due);
        const f64 start = now_ms();
        const exec::ExecutedFrame f = ex.step(kRoomWarmup + k);
        const f64 end = now_ms();
        spans.add("exec.step", start, end, f.frame);
        exam.executed.push_back(f);
        ++frames_done;
        lag.push_back(start - due);
        latency.push_back(end - due);
        step_ms.push_back(end - start);
        outside.push_back(end - start - f.measured_host_ms);
        if (f.deadline_miss) ++late;
        if (f.quality_level > 0) ++degraded;
        if (f.managed) {
          ++managed;
          if (std::any_of(f.plan.begin(), f.plan.end(),
                          [](i32 s) { return s > 1; })) {
            ++striped;
          }
          if (f.measured_host_ms > 0.0) {
            forecast_ape.push_back(
                100.0 * std::abs(f.predicted_host_ms - f.measured_host_ms) /
                f.measured_host_ms);
          }
        }
        last_end = end;
      }
      timed_ms += last_end - t1;
      repartitions.push_back(static_cast<f64>(ex.stats().repartitions));
      if (spans.on() && ex.ledger() != nullptr) {
        ledger.add(ex.ledger()->rows(), exams.empty());
      }
    } catch (const std::exception& e) {
      const i32 timed = std::max<i32>(
          0, static_cast<i32>(exam.executed.size()) - kRoomWarmup);
      res.fail(std::string("room_256 exam threw: ") + e.what(),
               kRoomFrames - timed);
      exams.push_back(std::move(exam));
      break;  // the run has failed; more exams would not change that
    }
    exams.push_back(std::move(exam));
  }

  res.add("peak_rss_mb", peak_rss_mb(), "MB",
          "getrusage max RSS before the checks");

  // Output check: frames come back in order, and every frame's scenario
  // matches a serial StentBoostApp that replays the quality level the
  // executor chose for it (stripe plans never change results).
  const auto ladder = rt::quality_ladder();
  parallel_for(static_cast<i32>(exams.size()), [&](i32 e) {
    Exam& exam = exams[static_cast<usize>(e)];
    app::StentBoostApp ref(exam.cfg);
    for (usize i = 0; i < exam.executed.size(); ++i) {
      const exec::ExecutedFrame& f = exam.executed[i];
      if (f.frame != static_cast<i32>(i)) {
        exam.errors.push_back("frame " + std::to_string(i) + " came back as " +
                              std::to_string(f.frame));
        return;
      }
      const usize q = std::min(static_cast<usize>(std::max(0, f.quality_level)),
                               ladder.size() - 1);
      ref.set_quality(ladder[q].extra_mkx_decimation, ladder[q].skip_guidewire,
                      ladder[q].zoom_divisor);
      const graph::FrameRecord r = ref.process_frame(f.frame);
      if (r.scenario != f.scenario) {
        exam.errors.push_back("frame " + std::to_string(i) + " scenario " +
                              std::to_string(f.scenario) +
                              ", serial reference " +
                              std::to_string(r.scenario));
      }
    }
  });
  for (const Exam& exam : exams) {
    for (const std::string& why : exam.errors) res.fail("room_256 " + why, 1);
  }

  const f64 max_lag =
      lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  const Tail lag_tail = tail_of(lag);
  char note[160];
  std::snprintf(note, sizeof(note),
                "generator lag p50 %.3f ms, p%.1f %.3f ms, max %.3f ms: %s",
                median(lag), lag_tail.pct, lag_tail.value, max_lag,
                max_lag > period ? "FELL BEHIND the camera rate" : "kept up");
  res.notes.push_back(note);
  res.add("throughput_fps",
          timed_ms > 0.0 ? 1000.0 * static_cast<f64>(frames_done) / timed_ms
                         : 0.0,
          "frames/s", "open loop at 20 fps, " + std::to_string(exams.size()) +
                          " exams");
  res.add("frame_latency_p50_ms", median(latency), "ms", "due -> step returns");
  res.add_tail("frame_latency_tail_ms", tail_of(latency), "ms");
  report_outcomes(res, late, degraded);
  res.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");

  if (!spans.on()) return;
  sample_render(exams.front().cfg.sequence, spans);
  res.add("imaging.render.p50_ms", median(spans.durations("imaging.render")),
          "ms", "sampled after the timed section");
  ledger.nodes.report(res);
  res.add("platform.pool_probe_wait.p50_ms", median(probe), "ms",
          std::to_string(probe.size()) + " probes between frames");
  res.add_tail("platform.pool_probe_wait.tail_ms", tail_of(probe), "ms");
  res.add("exec.step.p50_ms", median(step_ms), "ms");
  res.add_tail("exec.step.tail_ms", tail_of(step_ms), "ms");
  res.add("exec.outside_graph.p50_ms", median(outside), "ms",
          "step wall - measured_host_ms");
  res.add("exec.striped_frames_pct",
          managed > 0
              ? 100.0 * static_cast<f64>(striped) / static_cast<f64>(managed)
              : 0.0,
          "%", "managed frames");
  res.add("exec.repartitions", median(repartitions), "count", "per exam");
  res.add_tail("exec.generator_lag.tail_ms", lag_tail, "ms");
  res.add("tripleC.frame_forecast_ape.p50_pct", median(forecast_ape), "%");
  res.add("tripleC.frame_forecast_ape.p95_pct", quantile(forecast_ape, 95.0),
          "%");
  ledger.report_tripleC(res);
  res.add("analysis.startup.ms", median(spans.durations("analysis.startup")),
          "ms", "Executor construction");
}

/// The fleet's scraper and probe threads; join() (or the destructor) stops
/// and joins them.
struct BenchThreads {
  std::atomic<bool> stop{false};
  std::thread scraper;
  std::thread prober;

  BenchThreads() = default;
  BenchThreads(const BenchThreads&) = delete;
  BenchThreads& operator=(const BenchThreads&) = delete;
  ~BenchThreads() { join(); }

  void join() {
    stop.store(true);
    if (scraper.joinable()) scraper.join();
    if (prober.joinable()) prober.join();
  }
};

// --- fleet_4x256 ------------------------------------------------------------

void run_fleet(const Options& opt, Results& res, SpanLog& spans) {
  obs::set_enabled(true);

  std::vector<f64> setup_s, frame_p50, frame_p99, busy_frac, vtime_spread;
  std::vector<f64> admitted, queued, rejected, repartitions;
  i64 frames_done = 0;
  i64 late = 0;
  i64 degraded = 0;
  i64 scrape_failures = 0;
  i32 last_scrape_status = 0;
  f64 timed_ms = 0.0;
  i32 rounds = 0;
  LedgerStats ledger;
  std::mutex poll_mutex;  // guards vtime_spread and the scrape failures

  const i32 drains =
      std::max(1, static_cast<i32>(
                      std::lround(opt.seconds * kFleetDrainsPerSecond)));
  for (; rounds < drains; ++rounds) {
    release_free_memory();
    res.attempted += static_cast<i64>(kFleetStreams) * kFleetFrames;
    try {
      const f64 t0 = now_ms();
      serve::ServeConfig sc;
      sc.pool_threads = kFleetThreads;
      sc.max_concurrent_streams = kFleetSlots;
      sc.telemetry.enabled = true;
      sc.telemetry.port = 0;  // ephemeral
      serve::StreamServer server(sc);
      // The bench threads use `server`: declared after it, so they are
      // stopped and joined before it is destroyed, on a throw as well.
      BenchThreads threads;
      std::vector<i32> ids;
      for (i32 i = 0; i <= kFleetStreams; ++i) {
        const bool infeasible = i == kFleetStreams;
        serve::StreamConfig s;
        s.app = app::StentBoostConfig::make(
            kFleetSize, kFleetSize, kFleetFrames,
            exam_seed(opt.seed, rounds * 8 + i));
        s.frames = kFleetFrames;
        s.deadline_ms = infeasible
                            ? kFleetDeadlineMs / kFleetInfeasibleDivisor
                            : kFleetDeadlineMs;
        s.weight = infeasible ? 1.0 : kFleetWeights[i];
        s.name = infeasible ? "infeasible" : "room" + std::to_string(i);
        const f64 s0 = now_ms();
        ids.push_back(server.submit(std::move(s)));
        spans.add("serve.submit", s0, now_ms(), i);
      }

      const i32 port =
          server.telemetry() != nullptr ? server.telemetry()->port() : -1;
      if (port <= 0) throw std::runtime_error("telemetry endpoint not up");
      // 1 Hz scraper of /metrics and /streams for the whole drain; the
      // traced run also polls fleet_status() at the same rate.
      threads.scraper = std::thread([&, port] {
        while (!threads.stop.load()) {
          for (const char* path : {"/metrics", "/streams"}) {
            const f64 a = now_ms();
            const obs::HttpResult r = obs::http_get("127.0.0.1", port, path);
            spans.add(path[1] == 'm' ? "obs.scrape_metrics"
                                     : "obs.scrape_streams",
                      a, now_ms());
            if (r.status != 200) {
              std::lock_guard<std::mutex> lock(poll_mutex);
              ++scrape_failures;
              last_scrape_status = r.status;
            }
          }
          if (spans.on()) {
            const f64 a = now_ms();
            const serve::FleetStatus st = server.fleet_status();
            spans.add("serve.fleet_status", a, now_ms());
            std::vector<f64> vt;
            for (const serve::StreamStatus& s : st.streams) {
              if (s.state == "active" && s.frames_done > 0) {
                vt.push_back(s.vtime);
              }
            }
            f64 mean = 0.0;
            for (f64 v : vt) mean += v / static_cast<f64>(vt.size());
            if (vt.size() >= 2 && mean > 0.0) {
              const auto [lo, hi] = std::minmax_element(vt.begin(), vt.end());
              std::lock_guard<std::mutex> lock(poll_mutex);
              vtime_spread.push_back(100.0 * (*hi - *lo) / mean);
            }
          }
          const f64 next = now_ms() + kScrapePeriodMs;
          while (!threads.stop.load() && now_ms() < next) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      });
      // Traced run: a bench thread probes the shared pool every few ms
      // while the scheduler slots are busy.
      if (spans.on()) {
        threads.prober = std::thread([&] {
          while (!threads.stop.load()) {
            (void)pool_probe(server.pool(), spans);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kProbePeriodMs));
          }
        });
      }
      const f64 t1 = now_ms();
      setup_s.push_back((t1 - t0) / 1000.0);
      server.drain();
      const f64 t2 = now_ms();
      threads.join();
      timed_ms += t2 - t1;

      const serve::FleetReport fleet = server.fleet();
      late += fleet.deadline_misses;
      frame_p50.push_back(fleet.p50_ms);
      frame_p99.push_back(fleet.p99_ms);
      admitted.push_back(fleet.admitted);
      queued.push_back(fleet.queued);
      rejected.push_back(fleet.rejected);
      f64 served_ms = 0.0;
      f64 reparts = 0.0;
      for (i32 i = 0; i < kFleetStreams; ++i) {
        const serve::StreamReport r = server.report(ids[static_cast<usize>(i)]);
        frames_done += r.frames;
        degraded += r.degraded_frames;
        served_ms += r.mean_ms * r.frames;
        reparts += r.repartitions;
        if (!r.served || r.frames != kFleetFrames) {
          res.fail("fleet_4x256: stream " + r.name + " served " +
                       std::to_string(r.frames) + " of " +
                       std::to_string(kFleetFrames) + " frames (admission: " +
                       serve::to_string(r.decision.verdict) + ", " +
                       r.decision.reason + ")",
                   kFleetFrames - std::clamp(r.frames, 0, kFleetFrames));
        }
      }
      const serve::StreamReport bad = server.report(ids.back());
      if (bad.decision.verdict != serve::AdmissionVerdict::Reject ||
          bad.served) {
        res.fail("fleet_4x256: infeasible stream was not rejected", 0);
      }
      busy_frac.push_back(served_ms / ((t2 - t1) * kFleetSlots));
      repartitions.push_back(reparts);
      ledger.add(server.ledger_rows(1u << 20), rounds == 0);
    } catch (const std::exception& e) {
      res.fail(std::string("fleet_4x256 round threw: ") + e.what(),
               static_cast<i64>(kFleetStreams) * kFleetFrames);
    }
  }
  res.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage max RSS");
  if (scrape_failures > 0) {
    res.fail("fleet_4x256: " + std::to_string(scrape_failures) +
                 " telemetry scrapes failed (last status " +
                 std::to_string(last_scrape_status) + ")",
             0);
  }

  if (ledger.frames != frames_done) {
    res.fail("fleet_4x256: ledger holds " + std::to_string(ledger.frames) +
                 " frames, the streams served " + std::to_string(frames_done),
             0);
  }
  res.notes.push_back("admission per drain (median): " +
                      std::to_string(median(admitted)) + " admitted, " +
                      std::to_string(median(queued)) + " queued, " +
                      std::to_string(median(rejected)) + " rejected");
  res.add("throughput_fps",
          timed_ms > 0.0 ? 1000.0 * static_cast<f64>(frames_done) / timed_ms
                         : 0.0,
          "frames/s",
          std::to_string(frames_done) + " frames, " + std::to_string(rounds) +
              " drains");
  res.add("frame_latency_p50_ms", median(ledger.frame_ms), "ms",
          "graph time per frame, from the ledger rows");
  res.add_tail("frame_latency_tail_ms", tail_of(ledger.frame_ms), "ms");
  report_outcomes(res, late, degraded);
  res.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");

  if (!spans.on()) return;
  sample_render(app::StentBoostConfig::make(kFleetSize, kFleetSize,
                                            kFleetFrames,
                                            exam_seed(opt.seed, 0))
                    .sequence,
                spans);
  res.add("imaging.render.p50_ms", median(spans.durations("imaging.render")),
          "ms", "sampled after the timed section");
  ledger.nodes.report(res);
  const std::vector<f64> probe = spans.durations("platform.pool_probe");
  res.add("platform.pool_probe_wait.p50_ms", median(probe), "ms",
          std::to_string(probe.size()) + " probes while slots were busy");
  res.add_tail("platform.pool_probe_wait.tail_ms", tail_of(probe), "ms");
  res.add("exec.striped_frames_pct",
          ledger.frames > 0 ? 100.0 * static_cast<f64>(ledger.striped_frames) /
                                  static_cast<f64>(ledger.frames)
                            : 0.0,
          "%", "from ledger stripe counts");
  res.add("exec.repartitions", median(repartitions), "count", "per drain");
  res.add("tripleC.frame_forecast_ape.p50_pct", median(ledger.frame_ape), "%",
          "ledger frame sums");
  res.add("tripleC.frame_forecast_ape.p95_pct",
          quantile(ledger.frame_ape, 95.0), "%", "ledger frame sums");
  ledger.report_tripleC(res);
  res.add("serve.submit.p50_ms", median(spans.durations("serve.submit")), "ms");
  res.add("serve.admitted", median(admitted), "count", "per drain");
  res.add("serve.queued", median(queued), "count", "per drain");
  res.add("serve.rejected", median(rejected), "count", "per drain");
  res.add("serve.frame_graph.p50_ms", median(frame_p50), "ms");
  res.add("serve.frame_graph.p99_ms", median(frame_p99), "ms");
  res.add("serve.slot_busy_frac", median(busy_frac), "ratio");
  res.add("serve.vtime_spread_pct", median(vtime_spread), "%",
          std::to_string(vtime_spread.size()) + " polls");
  res.add("serve.fleet_status.p50_ms",
          median(spans.durations("serve.fleet_status")), "ms");
  res.add("obs.scrape_metrics.p50_ms",
          median(spans.durations("obs.scrape_metrics")), "ms");
  res.add("obs.scrape_streams.p50_ms",
          median(spans.durations("obs.scrape_streams")), "ms");
  res.add("obs.tracer_events", static_cast<f64>(obs::global().tracer.size()),
          "count", "whole run, never cleared");
  res.add("obs.flight_events", static_cast<f64>(obs::global().flight.size()),
          "count", "whole run");
  res.add("obs.ledger_rows", static_cast<f64>(ledger.rows), "count",
          "whole run");
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pipeline_512|room_256|fleet_4x256 --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string_view(v) == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Results res;
  SpanLog spans(opt.trace);
  if (opt.workload == "pipeline_512") {
    run_pipeline(opt, res, spans);
  } else if (opt.workload == "room_256") {
    run_room(opt, res, spans);
  } else if (opt.workload == "fleet_4x256") {
    run_fleet(opt, res, spans);
  } else {
    usage("unknown workload");
  }
  if (spans.on() && !opt.trace_out.empty() && !spans.write(opt.trace_out)) {
    res.fail("could not write " + opt.trace_out, 0);
  }
  res.print();
  return res.correct() ? 0 : 1;
}
