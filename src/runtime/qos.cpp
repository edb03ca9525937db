#include "runtime/qos.hpp"

#include <algorithm>
#include <array>

#include "obs/obs.hpp"

namespace tc::rt {

std::span<const QualityLevel> quality_ladder() {
  static const std::array<QualityLevel, 4> kLadder = {{
      {0, "full", 1, false, 1},
      {1, "coarse-markers", 2, false, 1},
      {2, "no-guidewire", 2, true, 1},
      {3, "half-zoom", 2, true, 2},
  }};
  return kLadder;
}

std::vector<NodeForecast> degrade_forecast(
    std::span<const NodeForecast> forecast, const QualityLevel& level) {
  std::vector<NodeForecast> out(forecast.begin(), forecast.end());
  for (usize node = 0; node < out.size(); ++node) {
    out[node].serial_ms *= level.cost_factor(narrow<i32>(node));
  }
  if (level.skip_guidewire) {
    out[static_cast<usize>(app::kGwExt)].active = false;
  }
  return out;
}

QosDecision choose_quality_and_plan(const plat::CostParams& params,
                                    std::span<const NodeForecast> forecast,
                                    f64 budget_ms, i32 max_stripes_per_task,
                                    i32 cpu_count, i32 start_level) {
  QosDecision decision;
  i32 ladder_steps = 0;
  bool fit = false;
  const std::span<const QualityLevel> ladder = quality_ladder();
  const i32 last = narrow<i32>(ladder.size()) - 1;
  for (const QualityLevel& level :
       ladder.subspan(static_cast<usize>(std::clamp(start_level, 0, last)))) {
    ++ladder_steps;
    std::vector<NodeForecast> degraded = degrade_forecast(forecast, level);
    PlanChoice plan = choose_plan(params, degraded, budget_ms,
                                  max_stripes_per_task, cpu_count);
    decision.level = level;
    decision.plan = plan;
    if (plan.fits_budget) {
      fit = true;
      break;
    }
  }
  // When nothing fits we stay at the lowest quality with its widest plan.
  if (obs::enabled()) {
    obs::MetricsRegistry& m = obs::global().metrics;
    m.counter("tripleC_qos_evaluations_total",
              "Invocations of the QoS quality/plan search")
        .add();
    m.counter("tripleC_qos_ladder_steps_total",
              "Quality levels examined across all QoS evaluations")
        .add(static_cast<f64>(ladder_steps));
    obs::Counter& exhausted = m.counter(
        "tripleC_qos_ladder_exhausted_total",
        "QoS evaluations where even the lowest quality missed the budget");
    if (!fit) exhausted.add();
  }
  return decision;
}

}  // namespace tc::rt
