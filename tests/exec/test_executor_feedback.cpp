// Executor feedback normalization: the per-node filters model serial,
// full-quality host time whatever plan and QoS level a frame ran under, and
// per-frame predictions are priced back under the frame's plan and level.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "app/stentboost.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"

namespace tc::exec {
namespace {

/// Full-frame, RDG always on: MKX_FULL and ZOOM run every frame.
app::StentBoostConfig full_frame_config(i32 size, i32 frames) {
  app::StentBoostConfig config =
      app::StentBoostConfig::make(size, size, frames, /*seed=*/11);
  config.force_full_frame = true;
  config.dominant_low = 0;
  return config;
}

f64 median(std::vector<f64> xs) {
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  return xs[xs.size() / 2];
}

// Under DeadlinePolicy::Degrade at the bottom of the quality ladder, the
// filters must still learn full-quality costs: they have to agree with a
// full-quality run of the same sequence.  Plans stay serial so the check
// isolates the quality normalization from the host stripe model; the runs
// are interleaved so both see the same host conditions, and each ratio is
// the median over the second half of the run so one wall-clock outlier
// cannot decide it.
TEST(ExecutorFeedback, DegradedFramesTrainFullQualityFilters) {
  constexpr i32 kSize = 256;
  constexpr i32 kFrames = 20;
  ExecutorConfig degraded_config;
  degraded_config.deadline_ms = 1e-3;  // unreachable even at min quality
  degraded_config.worker_threads = 2;
  degraded_config.max_stripes_per_task = 1;
  degraded_config.policy = DeadlinePolicy::Degrade;
  ExecutorConfig reference_config = degraded_config;
  reference_config.policy = DeadlinePolicy::Drop;  // stays at full quality

  Executor degraded(full_frame_config(kSize, kFrames), degraded_config);
  Executor reference(full_frame_config(kSize, kFrames), reference_config);
  const i32 bottom = narrow<i32>(rt::quality_ladder().size()) - 1;
  std::vector<f64> zoom;
  std::vector<f64> mkx;
  std::vector<f64> frame;
  for (i32 t = 0; t < kFrames; ++t) {
    const ExecutedFrame d = degraded.step(t);
    const ExecutedFrame r = reference.step(t);
    if (t > 0) {
      ASSERT_EQ(d.quality_level, bottom) << "frame " << t;
      ASSERT_EQ(r.quality_level, 0) << "frame " << t;
    }
    if (t < kFrames / 2) continue;
    for (auto [node, ratios] : {std::pair{app::kZoom, &zoom},
                                std::pair{app::kMkxFull, &mkx}}) {
      ratios->push_back(degraded.node_filter(node).value() /
                        reference.node_filter(node).value());
    }
    // The warm-start price the serving registry republishes.
    frame.push_back(degraded.snapshot_predictors().mean_frame_ms() /
                    reference.snapshot_predictors().mean_frame_ms());
  }

  EXPECT_NEAR(median(zoom), 1.0, 0.25);
  EXPECT_NEAR(median(frame), 1.0, 0.25);
  EXPECT_NEAR(median(mkx), 1.0, 0.25);
}

// The flight recorder's NodeTiming prediction is the node's serial estimate
// priced under the frame's stripe plan, not the serial estimate itself.
TEST(ExecutorFeedback, NodeTimingPredictsUnderTheFramePlan) {
  obs::global().clear();
  obs::set_enabled(true);
  ExecutorConfig exec_config;
  exec_config.deadline_ms = 0.3;  // tight: primed frames stripe
  exec_config.worker_threads = 4;
  exec_config.max_stripes_per_task = 4;
  Executor executor(full_frame_config(96, 8), exec_config);

  std::map<i32, std::array<f64, app::kNodeCount>> estimates;
  std::map<i32, app::StripePlan> plans;
  for (i32 t = 0; t < 4; ++t) {
    std::array<f64, app::kNodeCount>& e = estimates[t];
    for (i32 node = 0; node < app::kNodeCount; ++node) {
      e[static_cast<usize>(node)] = executor.node_filter(node).value();
    }
    const ExecutedFrame f = executor.step(t);
    ASSERT_EQ(f.quality_level, 0);
    plans[t] = f.plan;
  }
  obs::set_enabled(false);

  i32 striped_checked = 0;
  for (const obs::FlightEvent& e : obs::global().flight.snapshot()) {
    if (e.type != obs::FrEventType::NodeTiming || e.frame < 1) continue;
    const auto node = static_cast<usize>(e.node);
    const i32 stripes = plans.at(e.frame)[node];
    const f64 serial = estimates.at(e.frame)[node];
    if (app::node_data_parallel(e.node) && stripes > 1) {
      EXPECT_DOUBLE_EQ(e.a, plat::striped_ms_from_serial(
                                exec_config.host_cost, serial, stripes))
          << app::node_name(e.node) << " frame " << e.frame;
      ++striped_checked;
    } else {
      EXPECT_DOUBLE_EQ(e.a, serial)
          << app::node_name(e.node) << " frame " << e.frame;
    }
  }
  EXPECT_GT(striped_checked, 0);
  obs::global().clear();
}

}  // namespace
}  // namespace tc::exec
