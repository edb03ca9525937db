#include "runtime/qos.hpp"

#include <gtest/gtest.h>

#include "runtime/manager.hpp"
#include "tripleC/graph_predictor.hpp"

namespace tc::rt {
namespace {

std::vector<NodeForecast> heavy_forecast() {
  std::vector<NodeForecast> fc(app::kNodeCount);
  auto set = [&fc](i32 node, f64 ms) {
    fc[static_cast<usize>(node)].serial_ms = ms;
    fc[static_cast<usize>(node)].active = true;
    fc[static_cast<usize>(node)].data_parallel = app::node_data_parallel(node);
  };
  set(app::kRdgFull, 45.0);
  set(app::kMkxFull, 16.0);
  set(app::kCplsSel, 1.0);
  set(app::kGwExt, 3.0);
  set(app::kEnh, 10.0);
  set(app::kZoom, 20.0);
  return fc;
}

TEST(Qos, LadderStartsAtFullQuality) {
  auto ladder = quality_ladder();
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].level, 0);
  EXPECT_EQ(ladder[0].extra_mkx_decimation, 1);
  EXPECT_FALSE(ladder[0].skip_guidewire);
  EXPECT_EQ(ladder[0].zoom_divisor, 1);
}

TEST(Qos, LadderIsMonotonicallyMoreAggressive) {
  auto ladder = quality_ladder();
  for (usize i = 1; i < ladder.size(); ++i) {
    EXPECT_EQ(ladder[i].level, static_cast<i32>(i));
    // Each level is at least as degraded as the previous one.
    EXPECT_GE(ladder[i].extra_mkx_decimation,
              ladder[i - 1].extra_mkx_decimation);
    EXPECT_GE(ladder[i].zoom_divisor, ladder[i - 1].zoom_divisor);
    EXPECT_GE(static_cast<i32>(ladder[i].skip_guidewire),
              static_cast<i32>(ladder[i - 1].skip_guidewire));
  }
}

TEST(Qos, CostFactorsMatchDecimation) {
  QualityLevel level;
  level.extra_mkx_decimation = 2;
  level.zoom_divisor = 2;
  // MKX: a + (1 - a)/d² with a = 0.2; ZOOM: s/d + (1 - s)/d² with s = 0.3.
  EXPECT_DOUBLE_EQ(level.mkx_cost_factor(), 0.4);
  EXPECT_DOUBLE_EQ(level.zoom_cost_factor(), 0.325);
}

TEST(Qos, DegradeForecastScalesAffectedNodes) {
  auto fc = heavy_forecast();
  QualityLevel level;
  level.extra_mkx_decimation = 2;
  level.skip_guidewire = true;
  level.zoom_divisor = 2;
  auto degraded = degrade_forecast(fc, level);
  EXPECT_DOUBLE_EQ(degraded[app::kMkxFull].serial_ms, 6.4);
  EXPECT_DOUBLE_EQ(degraded[app::kZoom].serial_ms, 6.5);
  EXPECT_FALSE(degraded[app::kGwExt].active);
  // Unaffected nodes unchanged.
  EXPECT_DOUBLE_EQ(degraded[app::kRdgFull].serial_ms, 45.0);
}

TEST(Qos, GenerousBudgetStaysAtFullQuality) {
  plat::CostParams params;
  QosDecision d = choose_quality_and_plan(params, heavy_forecast(), 200.0, 4, 8);
  EXPECT_EQ(d.level.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
  EXPECT_EQ(d.plan.plan, app::serial_plan());
}

TEST(Qos, ModerateBudgetParallelizesBeforeDegrading) {
  plat::CostParams params;
  // 50 ms: reachable with stripes at full quality.
  QosDecision d = choose_quality_and_plan(params, heavy_forecast(), 50.0, 4, 8);
  EXPECT_EQ(d.level.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
  EXPECT_NE(d.plan.plan, app::serial_plan());
}

TEST(Qos, TightBudgetDegradesQuality) {
  plat::CostParams params;
  // 22 ms is below what 4-way striping of the full-quality graph achieves.
  QosDecision d = choose_quality_and_plan(params, heavy_forecast(), 22.0, 4, 8);
  EXPECT_GT(d.level.level, 0);
  EXPECT_TRUE(d.plan.fits_budget);
}

TEST(Qos, ImpossibleBudgetReturnsLowestQualityWidestPlan) {
  plat::CostParams params;
  QosDecision d = choose_quality_and_plan(params, heavy_forecast(), 0.5, 4, 8);
  EXPECT_EQ(d.level.level,
            static_cast<i32>(quality_ladder().size()) - 1);
  EXPECT_FALSE(d.plan.fits_budget);
}

TEST(Qos, DecisionLatencyMonotoneInBudget) {
  plat::CostParams params;
  f64 prev_level = 1e9;
  for (f64 budget : {15.0, 25.0, 40.0, 80.0, 200.0}) {
    QosDecision d =
        choose_quality_and_plan(params, heavy_forecast(), budget, 4, 8);
    EXPECT_LE(static_cast<f64>(d.level.level), prev_level)
        << "budget " << budget;
    prev_level = static_cast<f64>(d.level.level);
  }
}

// ---------------------------------------------------------------------------
// Integration: the manager with QoS enabled meets an otherwise-impossible
// budget by degrading, and restores quality when the budget allows.
// ---------------------------------------------------------------------------

app::StentBoostConfig qos_config() {
  app::StentBoostConfig c = app::StentBoostConfig::make(128, 128, 80, 31);
  c.force_full_frame = true;  // keep the expensive full-frame path active
  c.sequence.contrast_in_frame = 0;
  return c;
}

model::GraphPredictor quick_predictor(const app::StentBoostConfig& base) {
  std::vector<std::vector<graph::FrameRecord>> seqs;
  app::StentBoostConfig c = base;
  c.sequence.seed = 404;
  app::StentBoostApp app(c);
  seqs.push_back(app.run(40));
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.train(seqs);
  return gp;
}

TEST(QosManager, DegradesUnderImpossibleBudget) {
  app::StentBoostConfig c = qos_config();
  app::StentBoostApp app(c);
  model::GraphPredictor gp = quick_predictor(c);
  ManagerConfig mc;
  mc.latency_budget_ms = 25.0;  // unreachable at full quality
  mc.enable_qos = true;
  RuntimeManager mgr(app, gp, mc);
  bool degraded = false;
  for (i32 t = 0; t < 20; ++t) {
    ManagedFrame f = mgr.step(t);
    if (f.quality_level > 0) degraded = true;
  }
  EXPECT_TRUE(degraded);
  // The app-level knobs were actually applied.
  EXPECT_TRUE(app.quality_extra_decimation() > 1 ||
              app.quality_skip_guidewire() ||
              app.quality_zoom_divisor() > 1);
}

TEST(QosManager, FullQualityRestoredWithGenerousBudget) {
  app::StentBoostConfig c = qos_config();
  app::StentBoostApp app(c);
  model::GraphPredictor gp = quick_predictor(c);
  ManagerConfig mc;
  mc.latency_budget_ms = 500.0;
  mc.enable_qos = true;
  RuntimeManager mgr(app, gp, mc);
  for (i32 t = 0; t < 10; ++t) {
    ManagedFrame f = mgr.step(t);
    EXPECT_EQ(f.quality_level, 0) << "frame " << t;
  }
  EXPECT_EQ(app.quality_extra_decimation(), 1);
  EXPECT_FALSE(app.quality_skip_guidewire());
}

TEST(QosManager, DegradedRunStillMeetsBudgetMostFrames) {
  app::StentBoostConfig c = qos_config();
  app::StentBoostApp app(c);
  model::GraphPredictor gp = quick_predictor(c);
  ManagerConfig mc;
  mc.latency_budget_ms = 30.0;
  mc.enable_qos = true;
  RuntimeManager mgr(app, gp, mc);
  i32 within = 0;
  const i32 frames = 30;
  for (i32 t = 0; t < frames; ++t) {
    ManagedFrame f = mgr.step(t);
    if (f.measured_latency_ms <= mc.latency_budget_ms * 1.15) ++within;
  }
  EXPECT_GT(within, frames * 3 / 5);
}

}  // namespace
}  // namespace tc::rt
