// Quality-of-Service control (paper §1: the model descriptions are used for
// "resource planning, parallelization and possibly the corresponding QoS
// control").
//
// When even the widest stripe plan cannot meet the latency budget, the QoS
// controller degrades the application gracefully instead of letting the
// latency blow up.  Quality levels trade accuracy/fidelity for time on the
// tasks that tolerate it:
//
//   level 0  full quality
//   level 1  coarser marker-detection grid (2x extra decimation)
//   level 2  + skip the guide-wire stability check
//   level 3  + display zoom at half resolution
//
// The ladder is advisory: degrade_forecast scales the latency forecast by
// measured cost models of the knobs (QualityLevel::*_cost_factor),
// rt::Planner (runtime/planner.hpp) walks it, and StentBoostApp implements
// the knobs (set_quality).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "runtime/partition.hpp"

namespace tc::rt {

/// Share of a full-quality ZOOM that shrinks only with the output width:
/// the separable resampler's horizontal pass filters every source row the
/// output needs, so its cost scales 1/d, while the vertical pass scales 1/d².
/// Measured as the degraded/full ZOOM host-time ratio at 256² (DESIGN §5d).
inline constexpr f64 kZoomWidthShare = 0.3;
/// Share of a full-quality MKX that grid decimation does not shrink: the
/// box-average pass reads every full-resolution pixel (DESIGN §5d).
inline constexpr f64 kMkxFixedShare = 0.2;

struct QualityLevel {
  i32 level = 0;
  std::string_view name = "full";
  /// Extra decimation factor of the marker-detection grid (1 = none).
  i32 extra_mkx_decimation = 1;
  bool skip_guidewire = false;
  /// Display-zoom output divisor (1 = full resolution).
  i32 zoom_divisor = 1;

  /// Forecast scale factors for the affected nodes, exactly 1 at d = 1.
  /// MKX: a + (1 - a)/d², written as (1 + a(d² - 1))/d².
  [[nodiscard]] f64 mkx_cost_factor() const {
    f64 d = static_cast<f64>(extra_mkx_decimation);
    return (1.0 + kMkxFixedShare * (d * d - 1.0)) / (d * d);
  }
  /// ZOOM: s/d + (1 - s)/d², written as (1 + s(d - 1))/d².
  [[nodiscard]] f64 zoom_cost_factor() const {
    f64 d = static_cast<f64>(zoom_divisor);
    return (1.0 + kZoomWidthShare * (d - 1.0)) / (d * d);
  }
  /// Cost factor of `node` at this level (1 for the nodes it leaves alone).
  [[nodiscard]] f64 cost_factor(i32 node) const {
    if (node == app::kMkxFull || node == app::kMkxRoi) return mkx_cost_factor();
    if (node == app::kZoom) return zoom_cost_factor();
    return 1.0;
  }
};

/// The built-in quality ladder, best quality first.
[[nodiscard]] std::span<const QualityLevel> quality_ladder();

/// Scale a forecast for the given quality level (MKX/ZOOM cheaper, GW off).
[[nodiscard]] std::vector<NodeForecast> degrade_forecast(
    std::span<const NodeForecast> forecast, const QualityLevel& level);

/// Decision of the QoS controller for one frame.
struct QosDecision {
  QualityLevel level;
  PlanChoice plan;
};

/// Walk the quality ladder downwards from `start_level` (full quality by
/// default), choosing the first level whose best plan fits the budget; falls
/// back to the lowest level's widest plan when nothing fits.
[[nodiscard]] QosDecision choose_quality_and_plan(
    const plat::CostParams& params, std::span<const NodeForecast> forecast,
    f64 budget_ms, i32 max_stripes_per_task, i32 cpu_count,
    i32 start_level = 0);

}  // namespace tc::rt
