#include "runtime/manager.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace tc::rt {

RuntimeManager::RuntimeManager(app::StentBoostApp& app,
                               model::GraphPredictor& predictor,
                               ManagerConfig config)
    : app_(app),
      predictor_(predictor),
      config_(config),
      startup_(run_startup_gates(app_, &predictor_, config_)),
      planner_(PlannerConfig{app.config().cost, config.latency_budget_ms,
                             config.budget_headroom, config.warmup_frames,
                             config.max_stripes_per_task, config.enable_qos}) {}

std::vector<NodeForecast> RuntimeManager::forecast(
    bool assume_reg_success) const {
  const bool reg_likely =
      assume_reg_success ||
      ((predictor_.predict_scenario() >> app::kSwReg) & 1u) != 0;
  // Streaming tasks are priced at the frame's granularity (the ROI, or the
  // full frame without one); feature-level tasks take no size.
  const f64 pixels =
      (app_.roi_valid() ? static_cast<f64>(app_.current_roi().area())
                        : static_cast<f64>(app_.config().sequence.width) *
                              static_cast<f64>(app_.config().sequence.height)) *
      app_.config().cost.resolution_scale;
  return make_forecast(upcoming_scenario(app_, reg_likely), [&](i32 node) {
    return predictor_.predict_task(
        node, app::node_data_parallel(node) ? pixels : 0.0);
  });
}

ManagedFrame RuntimeManager::step(i32 t) {
  ManagedFrame result;
  const bool managed = planner_.budget_set();
  // Initialization phase (no budget yet): run serially at full quality and
  // collect the average case.
  PlanDecision decision;
  if (managed) {
    decision = planner_.decide(forecast(/*assume_reg_success=*/true),
                               app_.config().platform.cpu_count);
    const QualityLevel& q = decision.quality;
    if (q.level != decision.previous_level) {
      app_.set_quality(q.extra_mkx_decimation, q.skip_guidewire,
                       q.zoom_divisor);
    }
  }
  result.plan = decision.choice.plan;
  result.quality_level = decision.quality.level;
  result.fits_budget = decision.choice.fits_budget;
  app_.set_stripe_plan(result.plan);
  // Managed frames report the scenario-aware prediction under the chosen
  // plan and quality level.
  result.predicted_latency_ms = estimate_latency(
      app_.config().cost,
      degrade_forecast(forecast(/*assume_reg_success=*/!managed),
                       decision.quality),
      result.plan);
  result.record = app_.process_frame(t);
  result.measured_latency_ms = result.record.latency_ms;
  // Output delay line: early managed frames wait for the budget instant.
  result.output_latency_ms =
      std::max(result.measured_latency_ms, planner_.budget_ms());
  if (!managed) planner_.observe_warmup(result.measured_latency_ms);

  if (config_.online_observation) {
    // The predictors model *serial, full-quality* execution: normalize the
    // measurements back from the applied stripe plan and QoS level so the
    // models stay unbiased under repartitioning and degradation.
    graph::FrameRecord normalized = result.record;
    for (graph::TaskExecution& exec : normalized.tasks) {
      if (!exec.executed) continue;
      exec.simulated_ms = serial_full_quality_ms(
          app_.config().cost, exec.node, exec.simulated_ms,
          result.plan[static_cast<usize>(exec.node)], result.quality_level);
    }
    predictor_.observe(normalized);
  }

  const f64 budget_ms = planner_.budget_ms();
  if (obs::enabled()) {
    obs::FlightRecorder& flight = obs::global().flight;
    flight.record(obs::FrEventType::FrameStart, t, -1,
                  result.predicted_latency_ms);
    if (managed) record_decision(t, decision, result.predicted_latency_ms);
    if (scenario_seen_ && result.record.scenario != prev_scenario_) {
      flight.record(obs::FrEventType::ScenarioSwitch, t, -1,
                    static_cast<f64>(result.record.scenario),
                    static_cast<f64>(prev_scenario_));
    }
    flight.record(obs::FrEventType::FrameEnd, t, -1,
                  result.measured_latency_ms, budget_ms);
    if (managed && result.measured_latency_ms > budget_ms) {
      flight.record(obs::FrEventType::DeadlineMiss, t, -1,
                    result.measured_latency_ms, budget_ms);
    }
  }
  prev_scenario_ = result.record.scenario;
  scenario_seen_ = true;
  if (obs::enabled()) {
    record_frame_observability(
        result, managed, decision.plan_changed,
        decision.quality.level != decision.previous_level);
  }
  return result;
}

void RuntimeManager::record_frame_observability(const ManagedFrame& f,
                                                bool managed,
                                                bool repartitioned,
                                                bool qos_changed) {
  obs::ObsContext& ctx = obs::global();
  obs::MetricsRegistry& m = ctx.metrics;
  const f64 budget_ms = planner_.budget_ms();

  // --- metrics ------------------------------------------------------------
  m.counter("tripleC_frames_total", "Frames processed by the runtime manager")
      .add();
  if (planner_.budget_set()) {
    m.gauge("tripleC_latency_budget_ms", "Active output-latency budget")
        .set(budget_ms);
  }
  const bool budget_miss = managed && f.measured_latency_ms > budget_ms;
  // Register unconditionally so the family exists (value 0) from frame one.
  obs::Counter& misses = m.counter(
      "tripleC_budget_miss_total",
      "Managed frames whose measured latency exceeded the budget");
  if (budget_miss) misses.add();
  obs::Counter& reparts = m.counter(
      "tripleC_repartitions_total",
      "Managed frames whose stripe plan differs from the previous frame");
  if (repartitioned) reparts.add();
  m.gauge("tripleC_qos_level", "QoS quality level applied this frame")
      .set(static_cast<f64>(f.quality_level));
  obs::Counter& qos_changes =
      m.counter("tripleC_qos_level_changes_total",
                "Frames where the applied QoS level changed");
  if (qos_changed) qos_changes.add();

  const std::vector<f64> latency_bounds = obs::latency_buckets_ms();
  m.histogram("tripleC_frame_predicted_ms",
              "Triple-C predicted frame latency", latency_bounds)
      .record(f.predicted_latency_ms);
  m.histogram("tripleC_frame_measured_ms", "Measured (simulated) frame latency",
              latency_bounds)
      .record(f.measured_latency_ms);
  m.histogram("tripleC_frame_output_ms",
              "Output latency after the delay line", latency_bounds)
      .record(f.output_latency_ms);
  // Same skip rule and formula as model::evaluate_accuracy so the metric is
  // directly comparable with AccuracyReport::mape_pct.
  f64 error_pct = 0.0;
  obs::Histogram& error_hist =
      m.histogram("tripleC_frame_prediction_error_pct",
                  "Per-frame |predicted - measured| / measured in percent",
                  obs::error_pct_buckets());
  if (std::fabs(f.measured_latency_ms) > 1e-9) {
    error_pct = std::fabs(f.predicted_latency_ms - f.measured_latency_ms) /
                std::fabs(f.measured_latency_ms) * 100.0;
    error_hist.record(error_pct);
  }

  i32 total_stripes = 0;
  for (const graph::TaskExecution& exec : f.record.tasks) {
    if (!exec.executed) continue;
    total_stripes += app::node_data_parallel(exec.node)
                         ? f.plan[static_cast<usize>(exec.node)]
                         : 1;
  }
  m.histogram("tripleC_frame_stripes",
              "Total execution lanes (stripes) of the frame's plan",
              obs::small_count_buckets())
      .record(static_cast<f64>(total_stripes));

  ctx.frames.add(obs::FrameSample{f.record.frame, f.record.scenario,
                                  f.quality_level, total_stripes,
                                  f.predicted_latency_ms, f.measured_latency_ms,
                                  f.output_latency_ms, budget_ms,
                                  f.fits_budget, error_pct});

  // --- spans on the simulated timeline ------------------------------------
  obs::SpanTracer& tracer = ctx.tracer;
  tracer.set_thread_name(obs::kSimPid, 0, "frames / tasks");
  const f64 frame_start_us = sim_clock_ms_ * 1000.0;
  obs::SpanEvent frame_span;
  frame_span.name = "frame " + std::to_string(f.record.frame);
  frame_span.category = "frame";
  frame_span.pid = obs::kSimPid;
  frame_span.tid = 0;
  frame_span.ts_us = frame_start_us;
  frame_span.dur_us = f.output_latency_ms * 1000.0;
  frame_span.args = {
      {"scenario", std::to_string(f.record.scenario)},
      {"plan", plan_to_string(f.plan)},
      {"predicted_ms", std::to_string(f.predicted_latency_ms)},
      {"measured_ms", std::to_string(f.measured_latency_ms)},
      {"quality_level", std::to_string(f.quality_level)},
  };
  tracer.record(std::move(frame_span));

  f64 cursor_us = frame_start_us;
  for (const graph::TaskExecution& exec : f.record.tasks) {
    if (!exec.executed) continue;
    const f64 dur_us = exec.simulated_ms * 1000.0;
    obs::SpanEvent task_span;
    task_span.name = std::string(ctx.node_name(exec.node));
    task_span.category = "task";
    task_span.pid = obs::kSimPid;
    task_span.tid = 0;
    task_span.ts_us = cursor_us;
    task_span.dur_us = dur_us;
    task_span.args = {{"simulated_ms", std::to_string(exec.simulated_ms)}};
    tracer.record(std::move(task_span));
    // Stripe lanes: a data-parallel task striped s-ways occupies s simulated
    // CPU lanes for the task's (already striped) duration.
    const i32 stripes = app::node_data_parallel(exec.node)
                            ? f.plan[static_cast<usize>(exec.node)]
                            : 1;
    if (stripes > 1) {
      for (i32 s = 0; s < stripes; ++s) {
        const u32 lane = narrow<u32>(s) + 1;
        tracer.set_thread_name(obs::kSimPid, lane,
                               "stripe lane " + std::to_string(lane));
        obs::SpanEvent stripe_span;
        stripe_span.name =
            std::string(ctx.node_name(exec.node)) + " stripe " +
            std::to_string(s);
        stripe_span.category = "stripe";
        stripe_span.pid = obs::kSimPid;
        stripe_span.tid = lane;
        stripe_span.ts_us = cursor_us;
        stripe_span.dur_us = dur_us;
        tracer.record(std::move(stripe_span));
      }
    }
    cursor_us += dur_us;
  }
  if (f.output_latency_ms > f.measured_latency_ms + 1e-12) {
    obs::SpanEvent hold;
    hold.name = "delay_line_hold";
    hold.category = "delay-line";
    hold.pid = obs::kSimPid;
    hold.tid = 0;
    hold.ts_us = frame_start_us + f.measured_latency_ms * 1000.0;
    hold.dur_us = (f.output_latency_ms - f.measured_latency_ms) * 1000.0;
    tracer.record(std::move(hold));
  }
  if (repartitioned) {
    tracer.instant("repartition", "plan", obs::kSimPid, 0, frame_start_us,
                   {{"plan", plan_to_string(f.plan)}});
  }
  if (qos_changed) {
    tracer.instant("qos_level_change", "qos", obs::kSimPid, 0, frame_start_us,
                   {{"level", std::to_string(f.quality_level)}});
  }
  sim_clock_ms_ += f.output_latency_ms;
}

std::vector<ManagedFrame> RuntimeManager::run(i32 n) {
  std::vector<ManagedFrame> frames;
  frames.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) frames.push_back(step(t));
  return frames;
}

}  // namespace tc::rt
