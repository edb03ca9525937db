#include "runtime/planner.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace tc::rt {

graph::ScenarioId upcoming_scenario(const app::StentBoostApp& app,
                                    bool registration_succeeds) {
  return (app.rdg_active() ? 1u << app::kSwRdg : 0u) |
         (app.roi_valid() ? 1u << app::kSwRoi : 0u) |
         (registration_succeeds ? 1u << app::kSwReg : 0u);
}

std::vector<NodeForecast> make_forecast(
    graph::ScenarioId scenario, const std::function<f64(i32 node)>& estimate) {
  const std::array<bool, app::kNodeCount> active =
      app::scenario_node_activity(scenario);
  std::vector<NodeForecast> fc(app::kNodeCount);
  for (i32 node = 0; node < app::kNodeCount; ++node) {
    NodeForecast& f = fc[static_cast<usize>(node)];
    f.active = active[static_cast<usize>(node)];
    f.data_parallel = app::node_data_parallel(node);
    if (f.active) f.serial_ms = estimate(node);
  }
  return fc;
}

f64 serial_full_quality_ms(const plat::CostParams& params, i32 node,
                           f64 measured_ms, i32 stripes, i32 quality_level) {
  const f64 serial_ms =
      app::node_data_parallel(node)
          ? plat::serial_ms_from_striped(params, measured_ms, stripes)
          : measured_ms;
  return serial_ms /
         quality_ladder()[static_cast<usize>(quality_level)].cost_factor(node);
}

f64 planned_node_ms(const plat::CostParams& params, i32 node, f64 serial_ms,
                    i32 stripes, i32 quality_level) {
  const f64 degraded_ms =
      serial_ms *
      quality_ladder()[static_cast<usize>(quality_level)].cost_factor(node);
  return app::node_data_parallel(node)
             ? plat::striped_ms_from_serial(params, degraded_ms, stripes)
             : degraded_ms;
}

void record_decision(i32 frame, const PlanDecision& decision,
                     f64 predicted_ms) {
  if (!obs::enabled()) return;
  obs::FlightRecorder& flight = obs::global().flight;
  i32 total_stripes = 0;
  for (i32 s : decision.choice.plan) total_stripes += s;
  flight.record(obs::FrEventType::PlanChoice, frame, -1,
                static_cast<f64>(total_stripes), predicted_ms);
  if (decision.quality.level != decision.previous_level) {
    flight.record(obs::FrEventType::QosTransition, frame, -1,
                  static_cast<f64>(decision.quality.level),
                  static_cast<f64>(decision.previous_level));
  }
}

Planner::Planner(PlannerConfig config)
    : config_(config),
      budget_ms_(std::max(config.fixed_budget_ms, 0.0)),
      budget_set_(config.fixed_budget_ms > 0.0) {}

void Planner::observe_warmup(f64 latency_ms) {
  if (budget_set_) return;
  warmup_latencies_.push_back(latency_ms);
  if (narrow<i32>(warmup_latencies_.size()) >= config_.warmup_frames) {
    budget_ms_ = mean(warmup_latencies_) * config_.budget_headroom;
    budget_set_ = true;
  }
}

PlanDecision Planner::decide(std::span<const NodeForecast> forecast,
                             i32 cpu_count) {
  const std::span<const QualityLevel> ladder = quality_ladder();
  const auto plan_at = [&](i32 level) {
    return choose_plan(
        config_.cost,
        degrade_forecast(forecast, ladder[static_cast<usize>(level)]),
        budget_ms_, config_.max_stripes_per_task, cpu_count);
  };
  PlanDecision d;
  d.previous_level = quality_index_;
  if (config_.qos && quality_index_ > 0) {
    // Recovery hysteresis: lift one level only after kRecoverAfter
    // consecutive frames whose forecast fits at the better level.
    recover_streak_ =
        plan_at(quality_index_ - 1).fits_budget ? recover_streak_ + 1 : 0;
    if (recover_streak_ >= kRecoverAfter) {
      --quality_index_;
      recover_streak_ = 0;
    }
  }
  d.choice = plan_at(quality_index_);
  if (config_.qos && !d.choice.fits_budget &&
      quality_index_ + 1 < narrow<i32>(ladder.size())) {
    const QosDecision qos = choose_quality_and_plan(
        config_.cost, forecast, budget_ms_, config_.max_stripes_per_task,
        cpu_count, quality_index_ + 1);
    quality_index_ = qos.level.level;
    recover_streak_ = 0;
    d.choice = qos.plan;
  }
  d.quality = ladder[static_cast<usize>(quality_index_)];
  d.plan_changed = d.choice.plan != prev_plan_;
  prev_plan_ = d.choice.plan;
  return d;
}

}  // namespace tc::rt
