// The Triple-C control loop (paper §6) shared by rt::RuntimeManager
// (simulated platform) and exec::Executor (real host): forecast the active
// tasks (make_forecast), choose the stripe plan and QoS level that fit the
// budget (Planner::decide), execute, and feed measurements back as serial,
// full-quality times (serial_full_quality_ms).  The manager keeps only its
// simulated clock and output delay line, the executor its host predictors,
// ledger, diagnostics and pool share.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "runtime/qos.hpp"

namespace tc::rt {

/// Scenario of the coming frame: the RDG and ROI switches are inter-frame
/// state known before it starts; the registration outcome is the caller's.
[[nodiscard]] graph::ScenarioId upcoming_scenario(const app::StentBoostApp& app,
                                                  bool registration_succeeds);

/// Forecast of a frame running `scenario`: node activity from
/// app::scenario_node_activity; `estimate(node)` (serial, full-quality ms)
/// is called for the active nodes only.
[[nodiscard]] std::vector<NodeForecast> make_forecast(
    graph::ScenarioId scenario, const std::function<f64(i32 node)>& estimate);

/// Serial, full-quality time of `node` from a time measured under
/// `stripes`-way striping at quality_ladder() level `quality_level` (what
/// the predictors model).
[[nodiscard]] f64 serial_full_quality_ms(const plat::CostParams& params,
                                         i32 node, f64 measured_ms,
                                         i32 stripes, i32 quality_level);
/// Inverse of serial_full_quality_ms.
[[nodiscard]] f64 planned_node_ms(const plat::CostParams& params, i32 node,
                                  f64 serial_ms, i32 stripes,
                                  i32 quality_level);

/// Planner inputs, each taken from a ManagerConfig / ExecutorConfig field.
struct PlannerConfig {
  plat::CostParams cost;
  f64 fixed_budget_ms = 0.0;  ///< <= 0: derived from the warm-up frames
  f64 budget_headroom = 1.0;
  i32 warmup_frames = 0;
  i32 max_stripes_per_task = 4;
  bool qos = false;  ///< walk the QoS ladder when no plan fits the budget
};

struct PlanDecision {
  PlanChoice choice;  ///< serial plan when default-constructed
  QualityLevel quality;
  i32 previous_level = 0;
  bool plan_changed = false;  ///< vs. the previous decision
};

/// Flight-record the decision of frame `frame`: PlanChoice (b = the
/// caller's `predicted_ms`) and, when the level moved, QosTransition.
void record_decision(i32 frame, const PlanDecision& decision,
                     f64 predicted_ms);

/// Budget, QoS level (with its recovery streak) and previous plan.
class Planner {
 public:
  /// A degraded planner lifts one quality level after this many consecutive
  /// decisions whose forecast fits at the better level.
  static constexpr i32 kRecoverAfter = 4;

  explicit Planner(PlannerConfig config);

  [[nodiscard]] bool budget_set() const { return budget_set_; }
  /// 0 until the budget is set.
  [[nodiscard]] f64 budget_ms() const { return budget_ms_; }

  /// Account one warm-up frame's latency; after warmup_frames of them the
  /// budget becomes their mean times the headroom.  No-op once it is set.
  void observe_warmup(f64 latency_ms);

  /// Plan and quality level for a frame with `forecast` (serial, full
  /// quality) on `cpu_count` CPUs.  Requires budget_set().
  [[nodiscard]] PlanDecision decide(std::span<const NodeForecast> forecast,
                                    i32 cpu_count);

 private:
  PlannerConfig config_;
  f64 budget_ms_ = 0.0;
  bool budget_set_ = false;
  std::vector<f64> warmup_latencies_;
  i32 quality_index_ = 0;  ///< into quality_ladder()
  i32 recover_streak_ = 0;
  app::StripePlan prev_plan_ = app::serial_plan();
};

}  // namespace tc::rt
