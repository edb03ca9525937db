// Closed-loop concurrent executor: predict → execute → measure → adapt.
//
// The runtime manager (runtime/manager) drives the *simulated* platform; the
// Executor drives the real host.  Every frame it
//
//   1. forecasts each active task's serial host time from per-node EWMA
//      filters (Eq. 1), corrected by a frame-level Markov chain (Eq. 2)
//      over serial-equivalent frame totals (short-term fluctuation),
//   2. chooses a stripe plan with the shared rt::Planner so the predicted
//      host latency fits the frame deadline — repartitioning live whenever
//      the prediction drifts across the plan boundary (runtime/planner.hpp),
//   3. executes the frame for real: StentBoostApp stripes its row kernels
//      over the executor-owned plat::ThreadPool per the plan,
//   4. feeds the measured host times (FlowGraph stamps TaskExecution::
//      host_ms) back into the EWMA filters and the Markov chain, after
//      mapping them to serial, full-quality time through the frame's plan
//      and QoS level (rt::serial_full_quality_ms), so the predictors stay
//      unbiased under repartitioning and degradation.
//
// Deadline QoS: a frame that measures past its deadline is counted as a
// miss; DeadlinePolicy::Drop removes it from the display stream,
// DeadlinePolicy::Degrade lets the planner walk the QoS ladder.
//
// The first `warmup_frames` frames run serially to prime the filters, fit
// the Markov chain and derive the deadline (mean * headroom) when none is
// configured — the paper's initialization phase.
//
// The graph is validated by analysis::Analyzer before the first frame
// (Strict policy throws analysis::AnalysisError from the constructor).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/stentboost.hpp"
#include "exec/deadline.hpp"
#include "obs/drift.hpp"
#include "obs/ledger.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry_server.hpp"
#include "platform/thread_pool.hpp"
#include "runtime/audit_gate.hpp"
#include "runtime/planner.hpp"
#include "tripleC/ewma.hpp"
#include "tripleC/markov.hpp"

namespace tc::exec {

/// Stripe-overhead parameters of the *host* (thread-pool dispatch and
/// barrier are tens of microseconds, unlike the simulated platform's
/// heavyweight task control), used for plan estimation and for the
/// serial <-> striped conversion of measured times.
[[nodiscard]] plat::CostParams host_cost_params();

/// Fault injection: a synthetic co-scheduled interferer.  For `frames`
/// frames starting at `start_frame` the executor busy-spins `busy_ms` of
/// wall-clock time per frame and charges it to the frame's measured host
/// latency — a deterministic load spike the predictors did not see coming,
/// used to demo/exercise deadline misses, drift alarms and post-mortems.
struct LoadSpike {
  i32 start_frame = -1;  ///< < 0 disables the injection
  i32 frames = 0;
  f64 busy_ms = 0.0;
};

/// Diagnostics: drift/SLO monitoring and post-mortem capture (ISSUE 5).
/// Disabled by default — the executor then carries zero monitor state.
struct DiagnosticsConfig {
  bool enabled = false;
  /// Per-predictor drift detection ("ewma_only" and "markov_corrected"
  /// streams); alerts force a predictor re-training when retrain_on_drift.
  obs::DriftConfig drift;
  bool retrain_on_drift = true;
  /// SLO thresholds, derived from the active deadline once it is known:
  /// miss-rate over the window, p99 <= deadline * slo_p99_factor, and
  /// p99 - p50 jitter <= deadline * slo_jitter_factor.
  f64 slo_miss_rate = 0.25;
  f64 slo_p99_factor = 1.50;
  f64 slo_jitter_factor = 0.75;
  i32 slo_window = 48;
  i32 slo_min_frames = 16;
  i32 slo_cooldown_frames = 48;
  /// Bundle output; an empty directory disables post-mortem writing.
  obs::PostmortemConfig postmortem;
};

/// Portable snapshot of a trained predictor stack: the per-node EWMA levels
/// (Eq. 1) plus the frame-level Markov chain (Eq. 2) and its state.  The
/// serving layer (serve::PredictorRegistry) publishes one per scenario class
/// at stream retire and clones it into newly admitted same-class streams, so
/// they start calibrated instead of paying the cold-start warm-up
/// (Jung/Oh/Ha's mode-transition-delay argument at fleet scale).
struct PredictorSnapshot {
  std::array<f64, app::kNodeCount> node_serial_ms{};
  std::array<bool, app::kNodeCount> node_primed{};
  model::MarkovChain frame_markov;
  /// Markov conditioning state at snapshot time (last serial-equivalent
  /// frame total).
  f64 last_serial_total_ms = 0.0;
  /// Mean per-frame traffic per Fig.-4 bus class (cache / memory / I/O MB,
  /// summed node auxiliary filters) — the admission controller's bus-demand
  /// estimate.
  std::array<f64, 3> bus_mb_per_frame{};
  /// Frames the stack was trained on (0 = empty/cold snapshot).
  u64 trained_frames = 0;

  [[nodiscard]] bool trained() const { return trained_frames > 0; }
  /// Serial-equivalent frame-cost estimate of the stack: the Markov chain's
  /// unconditional mean when fitted, else the sum of the primed filters.
  [[nodiscard]] f64 mean_frame_ms() const;
};

struct ExecutorConfig : rt::StartupGates {
  /// Worker threads of the executor-owned pool (0 = hardware concurrency).
  i32 worker_threads = 4;
  /// External pool shared with other executors (the serving layer runs N
  /// streams on one pool).  Non-null skips spawning an owned pool —
  /// worker_threads is then ignored; the pool must outlive the executor.
  plat::ThreadPool* shared_pool = nullptr;
  /// Fixed per-frame deadline; <= 0 derives it from the warm-up phase as
  /// mean measured host latency * deadline_headroom.
  f64 deadline_ms = 0.0;
  f64 deadline_headroom = 1.30;
  i32 warmup_frames = 8;
  DeadlinePolicy policy = DeadlinePolicy::Drop;
  i32 max_stripes_per_task = 4;
  /// Live repartitioning: when false, managed frames keep the serial plan
  /// (measure-only mode, useful for baselines).
  bool adapt = true;
  /// EWMA smoothing factor of the per-node host-time filters.
  f64 ewma_alpha = 0.3;
  /// Host stripe-overhead parameters (see host_cost_params()).
  plat::CostParams host_cost = host_cost_params();
  /// Frames of a throwaway simulated copy of the application that train the
  /// startup audit's predictor (audit_at_startup).
  i32 audit_training_frames = 48;
  /// Drift/SLO monitoring + post-mortem capture.
  DiagnosticsConfig diagnostics;
  /// Prediction ledger (predicted-vs-actual resource attribution per frame
  /// and node; see obs/ledger.hpp).  Off by default.
  obs::LedgerConfig ledger;
  /// Close the calibration loop: divide each node's EWMA forecast by the
  /// ledger's rolling bias gauge for that node (1 + bias/100), so a
  /// systematically over- or under-predicting node is recentred before the
  /// plan is chosen.  Requires ledger.enabled; A/B-toggled by
  /// `bench_executor --ledger`.
  bool ledger_bias_correction = false;
  /// Calibration-window samples a node needs before it is corrected.
  u64 bias_min_samples = 8;
  /// Correction clamp: the per-node factor stays in [1-c, 1+c] so one
  /// pathological window cannot swing the plan.
  f64 bias_correction_clamp = 0.25;
  /// Ledger rows embedded in each post-mortem bundle (most recent first).
  usize postmortem_ledger_rows = 32;
  /// Synthetic interference (see LoadSpike); off by default.
  LoadSpike load_spike;
  /// In-process HTTP ops endpoint for a standalone executor (off by
  /// default; the serving layer wires its own — see serve::ServeConfig).
  /// Readiness flips once the validation/audit startup gates have passed.
  obs::TelemetryConfig telemetry;
};

/// Outcome of one executed frame.
struct ExecutedFrame {
  i32 frame = -1;
  graph::ScenarioId scenario = 0;
  app::StripePlan plan = app::serial_plan();
  /// Predicted host latency of the chosen plan (0 during warm-up).
  f64 predicted_host_ms = 0.0;
  /// Measured host latency of the frame's graph execution: the sum of the
  /// executed tasks' wall-clock times (input rendering excluded).
  f64 measured_host_ms = 0.0;
  f64 deadline_ms = 0.0;
  /// False for warm-up (serial, deadline not yet set) frames.
  bool managed = false;
  bool deadline_miss = false;
  /// DeadlinePolicy::Drop removed this frame from the display stream.
  bool dropped = false;
  /// QoS quality level applied this frame (0 = full quality).
  i32 quality_level = 0;
  /// The stripe plan changed vs. the previous frame (live repartition).
  bool repartitioned = false;
};

struct ExecutorStats {
  i32 frames = 0;
  i32 managed_frames = 0;
  i32 deadline_misses = 0;
  i32 dropped_frames = 0;
  i32 degraded_frames = 0;
  i32 repartitions = 0;
  f64 mean_measured_ms = 0.0;
  // --- diagnostics (all 0 when DiagnosticsConfig::enabled is false) --------
  i32 drift_alerts = 0;
  i32 slo_breaches = 0;
  i32 retrains = 0;
  i32 postmortems = 0;
};

class Executor {
 public:
  explicit Executor(app::StentBoostConfig app_config,
                    ExecutorConfig config = {});

  /// Predict, choose a plan, execute frame `t` for real, feed back.
  ExecutedFrame step(i32 t);

  /// Run frames [0, n).
  std::vector<ExecutedFrame> run(i32 n);

  /// Run frames [0, n) with up to `frames_in_flight` frames overlapped
  /// through exec::FramePipeline (front stage analyses frame t+1 while the
  /// back stage enhances frame t).  Plans are chosen at admission and frames
  /// settle at retire — both in frame order — so the FrameRecords are
  /// byte-identical to run(n); only the predictor feedback may lag by the
  /// frames in flight.  The per-frame instance budget divides the pool
  /// among the in-flight frames (rt::budget_for_plan).
  std::vector<ExecutedFrame> run_pipelined(i32 n, i32 frames_in_flight = 2);

  [[nodiscard]] f64 deadline_ms() const { return planner_.budget_ms(); }
  [[nodiscard]] bool deadline_set() const { return planner_.budget_set(); }
  [[nodiscard]] app::StentBoostApp& app() { return app_; }
  [[nodiscard]] plat::ThreadPool& pool() { return *pool_; }
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }
  [[nodiscard]] const analysis::Report& validation_report() const {
    return startup_.validation;
  }
  /// Diagnostics of the startup schedulability audit (empty when
  /// audit_at_startup is off or nothing fired).
  [[nodiscard]] const analysis::Report& audit_report() const {
    return startup_.audit;
  }
  [[nodiscard]] ExecutorStats stats() const { return stats_; }

  /// Thread-safe copy of the frame counters and the active deadline —
  /// stats() itself is only safe from the stepping thread; telemetry
  /// handlers (and anything else off-thread) read this mirror, refreshed
  /// once per settled frame.
  struct StatusSnapshot {
    ExecutorStats stats;
    f64 deadline_ms = 0.0;  ///< 0 until the deadline is set
  };
  [[nodiscard]] StatusSnapshot status_snapshot() const
      TC_EXCLUDES(status_mutex_);

  /// Telemetry plane (null unless ExecutorConfig::telemetry.enabled).
  [[nodiscard]] obs::TelemetryServer* telemetry() { return telemetry_.get(); }

  // --- predictor state (read-only, for tests/examples) ---------------------
  [[nodiscard]] const model::EwmaFilter& node_filter(i32 node) const {
    return node_ewma_[static_cast<usize>(node)];
  }
  [[nodiscard]] const model::MarkovChain& frame_markov() const {
    return frame_markov_;
  }

  /// Host-time forecast of the coming frame (serial-equivalent per node),
  /// built from the EWMA filters; exposed for tests/benches.
  [[nodiscard]] std::vector<rt::NodeForecast> host_forecast() const;

  /// Prediction ledger (null when LedgerConfig::enabled is false).
  [[nodiscard]] obs::PredictionLedger* ledger() { return ledger_.get(); }
  [[nodiscard]] const obs::PredictionLedger* ledger() const {
    return ledger_.get();
  }

  // --- diagnostics (null/empty when DiagnosticsConfig::enabled is false) ---
  [[nodiscard]] obs::DriftMonitor* drift_monitor() { return drift_.get(); }
  [[nodiscard]] obs::SloMonitor* slo_monitor() { return slo_.get(); }
  [[nodiscard]] obs::PostmortemWriter* postmortem_writer() {
    return postmortem_.get();
  }

  /// Snapshot of the predictor stack (EWMA filters, Markov chain, drift
  /// errors) as embedded in post-mortem bundles.
  [[nodiscard]] obs::PredictorStateSummary predictor_summary() const;

  /// Explicitly capture a post-mortem bundle (reason "manual" unless given);
  /// returns the bundle path or "" when diagnostics/postmortems are off.
  std::string write_postmortem(const std::string& reason = "manual");

  /// Drop the Markov chain and its training series so the next
  /// `warmup_frames` frames re-fit it — the drift-alert response ("force
  /// re-training").  EWMA filters keep adapting and are not reset.
  void force_retrain(i32 frame);

  /// Cap the pool threads the planner assumes for this executor's frames —
  /// the weighted fair share the serving layer grants the stream under a
  /// shared pool (0 = the whole pool).  Set it only between this executor's
  /// frames, from the thread that steps it.
  void set_pool_share(i32 threads) { pool_share_ = threads; }
  /// Pool threads the planner currently assumes (share-capped pool size).
  [[nodiscard]] i32 effective_threads() const;

  /// Export the current predictor stack for warm-starting a same-class
  /// stream (serve::PredictorRegistry).
  [[nodiscard]] PredictorSnapshot snapshot_predictors() const;
  /// Seed the predictor stack from a trained snapshot: primed filters and a
  /// fitted Markov chain are adopted wholesale, so a deadline-configured
  /// stream skips the cold-start warm-up and runs managed from frame 0.
  void warm_start(const PredictorSnapshot& snap);

 private:
  /// EWMA serial-ms estimate of a node; falls back to the node's
  /// granularity sibling (RDG_ROI <-> RDG_FULL, MKX_ROI <-> MKX_FULL) while
  /// the filter is unprimed (e.g. the first ROI-mode frame).
  [[nodiscard]] f64 node_estimate(i32 node) const;

  /// Feed the frame's measured host times back into the predictors,
  /// normalized through the frame's plan and quality level; returns the
  /// serial-equivalent frame total.
  f64 feed_back(const graph::FrameRecord& record, const ExecutedFrame& frame);

  /// Select and apply the stripe plan + instance budget for frame `t`
  /// (fills the prediction-side fields of `result`); returns the pre-Markov
  /// EWMA forecast total (drift input).  Touches predictor state — callers
  /// outside the serial step() path must serialize plan_frame/settle_frame
  /// (run_pipelined guards both with one mutex).
  f64 plan_frame(i32 t, i32 frames_in_flight, ExecutedFrame& result);
  /// Recentre the forecast by the ledger's rolling per-node bias gauge
  /// (ledger_bias_correction satellite; no-op without enough samples).
  void bias_correct(std::vector<rt::NodeForecast>& fc) const;
  /// Post-execution bookkeeping for a frame whose measured_host_ms is
  /// final: deadline accounting, predictor feedback, warm-up fitting,
  /// stats, observability and diagnostics.  Frames must settle in order.
  void settle_frame(ExecutedFrame& result, const graph::FrameRecord& record,
                    f64 ewma_total);

  /// Ledger prediction rows for frame `t` under the chosen plan: CPU from
  /// the (Markov-scaled) forecast striped through the plan, memory and
  /// per-bus traffic from the auxiliary per-node EWMA filters.
  void ledger_predict(i32 t, std::span<const rt::NodeForecast> fc,
                      const ExecutedFrame& result);
  /// Settle the frame's ledger rows from measured task executions, update
  /// the auxiliary filters and feed the per-node drift streams.
  void ledger_settle(const ExecutedFrame& result,
                     const graph::FrameRecord& record);

  void record_frame_observability(const ExecutedFrame& f);
  /// Drift/SLO evaluation + post-mortem triggers for one finished frame;
  /// `ewma_total` is the pre-Markov serial-equivalent forecast (0 when
  /// unmanaged), `serial_total` the frame's serial-equivalent measurement.
  void run_diagnostics(const ExecutedFrame& f, f64 ewma_total,
                       f64 serial_total);
  /// `breach` (optional) attaches the triggering SLO's identity, value and
  /// threshold plus the monitor's window aggregates to the bundle's extra
  /// fields.
  [[nodiscard]] obs::PostmortemContext postmortem_context(
      const ExecutedFrame& f, const std::string& reason,
      const obs::SloBreach* breach = nullptr) const;

  ExecutorConfig config_;
  /// Owned worker pool; null when ExecutorConfig::shared_pool injects an
  /// external one.  pool_ always points at the pool in use.
  std::unique_ptr<plat::ThreadPool> owned_pool_;
  plat::ThreadPool* pool_;
  app::StentBoostApp app_;
  /// Startup lint/audit gates, run before the first frame.
  rt::StartupReports startup_;
  /// Deadline, QoS level and previous plan (the shared control loop).
  rt::Planner planner_;

  std::array<model::EwmaFilter, app::kNodeCount> node_ewma_;
  /// Auxiliary per-node filters for the non-CPU ledger resources (memory
  /// footprint and the three bus classes), fed from measured actuals at
  /// settle; indexed [node][resource - 1] (resource 0 = CpuMs lives in
  /// node_ewma_).
  std::array<std::array<model::EwmaFilter, obs::kLedgerResourceCount - 1>,
             app::kNodeCount>
      node_aux_ewma_;
  /// Graph topology per node: no incoming edge (camera-fed source) / no
  /// outgoing edge (display sink) — the ledger's I/O-bus attribution.
  std::array<bool, app::kNodeCount> node_is_source_{};
  std::array<bool, app::kNodeCount> node_is_sink_{};
  model::MarkovChain frame_markov_;
  /// Serial-equivalent frame totals of the warm-up phase (Markov training
  /// series).
  std::vector<f64> warmup_serial_totals_;
  f64 last_serial_total_ms_ = 0.0;

  /// Planner thread cap under a shared pool (see set_pool_share; 0 = all).
  i32 pool_share_ = 0;

  ExecutorStats stats_;
  f64 measured_sum_ms_ = 0.0;

  /// Diagnostics stack (allocated only when diagnostics.enabled).  The SLO
  /// monitor is created lazily once the deadline is known, because its
  /// thresholds derive from the deadline.
  std::unique_ptr<obs::DriftMonitor> drift_;
  std::unique_ptr<obs::SloMonitor> slo_;
  std::unique_ptr<obs::PostmortemWriter> postmortem_;
  /// Prediction ledger (allocated only when config_.ledger.enabled).
  std::unique_ptr<obs::PredictionLedger> ledger_;
  /// Admission ticket of the next planned frame (frame order).
  i64 next_ticket_ = 0;
  /// Last frame result, kept for explicit write_postmortem() requests.
  ExecutedFrame last_frame_;

  /// Off-thread status mirror (see status_snapshot()).
  mutable common::Mutex status_mutex_;
  StatusSnapshot status_ TC_GUARDED_BY(status_mutex_);
  /// Single-stream status JSON for the /streams endpoint.
  [[nodiscard]] std::string status_json() const TC_EXCLUDES(status_mutex_);
  /// Telemetry plane, declared last so it is destroyed *first*: handler
  /// threads must stop before the state their providers snapshot.
  std::unique_ptr<obs::StatusAggregator> status_agg_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
};

}  // namespace tc::exec
