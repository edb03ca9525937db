// Pins the simulated timeline of the runtime manager.
//
// The two RuntimeManager configurations that EXPERIMENTS.md figures depend
// on — bench_fig7_latency (budget at the warm-up mean, at most 2-way
// striping) and bench_reservation (the defaults: +10% headroom, 4-way) —
// run here on a reduced frame size and sequence length.  Every frame's stripe
// plan, QoS level and fits_budget verdict must match the recorded values
// exactly; the budget and each output latency must match to 1e-9 relative.
// A refactor of the plan/QoS control loop that shifts any of them would
// move a published figure.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>

#include "runtime/manager.hpp"
#include "trace/dataset.hpp"

namespace tc::rt {
namespace {

struct PinnedFrame {
  const char* plan;
  i32 quality_level;
  bool fits_budget;
  f64 output_latency_ms;
};

constexpr i32 kFrames = 72;
constexpr i32 kWarmup = 10;

model::GraphPredictor trained_predictor() {
  trace::DatasetParams tp;
  tp.sequences = 3;
  tp.frames_per_sequence = 40;
  tp.width = 128;
  tp.height = 128;
  model::GraphPredictor gp(app::kNodeCount, app::kSwitchCount);
  gp.train(trace::build_dataset(tp).sequences);
  return gp;
}

/// The benches' 200-frame test sequence (seed 777, bolus in the middle),
/// scaled down to 128² and kFrames frames.
app::StentBoostConfig test_sequence(bool marker_dropouts) {
  app::StentBoostConfig c =
      app::StentBoostConfig::make(128, 128, kFrames, 777);
  c.sequence.contrast_in_frame = 22;
  c.sequence.contrast_out_frame = 54;
  if (marker_dropouts) c.sequence.marker_dropout_prob = 0.03;
  return c;
}

void expect_timeline(const app::StentBoostConfig& sequence,
                     const ManagerConfig& mc, f64 budget_ms,
                     std::span<const PinnedFrame> pinned) {
  model::GraphPredictor gp = trained_predictor();
  app::StentBoostApp app(sequence);
  RuntimeManager mgr(app, gp, mc);
  ASSERT_EQ(pinned.size(), static_cast<usize>(kFrames));
  for (i32 t = 0; t < kFrames; ++t) {
    const ManagedFrame f = mgr.step(t);
    const PinnedFrame& p = pinned[static_cast<usize>(t)];
    EXPECT_EQ(plan_to_string(f.plan), p.plan) << "frame " << t;
    EXPECT_EQ(f.quality_level, p.quality_level) << "frame " << t;
    EXPECT_EQ(f.fits_budget, p.fits_budget) << "frame " << t;
    EXPECT_NEAR(f.output_latency_ms, p.output_latency_ms,
                1e-9 * std::fabs(p.output_latency_ms))
        << "frame " << t;
  }
  EXPECT_NEAR(mgr.latency_budget_ms(), budget_ms, 1e-9 * budget_ms);
}

// clang-format off
constexpr f64 kFig7BudgetMs = 38.303619390291132;
constexpr PinnedFrame kFig7[] = {
    {"serial", 0, false, 59.947749875060055},
    {"serial", 0, false, 49.57497181008673},
    {"serial", 0, false, 50.643511878742757},
    {"serial", 0, false, 2.9783855386911045},
    {"serial", 0, false, 14.814212690402265},
    {"serial", 0, false, 39.503593233074348},
    {"serial", 0, false, 41.763818154174672},
    {"serial", 0, false, 40.761402014697623},
    {"serial", 0, false, 41.383159880233947},
    {"serial", 0, false, 41.665388827747805},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ZOOMx2", 0, true, 38.303619390291132},
    {"ENHx2 ZOOMx2", 0, true, 39.933388260686741},
    {"ENHx2 ZOOMx2", 0, true, 39.824598184091109},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 41.576959649144179},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.903256656135127},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.855204138037273},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.127297053309952},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.791963406722708},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 43.568895105958411},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.689495819398303},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 43.213780234659083},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.562407292167116},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.883107792318206},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.830403931641769},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.179224476539112},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.360395372441573},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 41.379842513217149},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 39.310174638597211},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 41.064507094633449},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.67134577440617},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.400229355369127},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 44.41828164580631},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 42.237949061736522},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 44.515338432121872},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.464220192016597},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 39.963396461327093},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.845900963981521},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 41.969066182035192},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_FULLx2 MKX_FULLx2 ENHx2 ZOOMx2", 0, false, 40.970635942168116},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"ENHx2 ZOOMx2", 0, true, 38.303619390291132},
    {"RDG_ROIx2 ENHx2 ZOOMx2", 0, true, 38.303619390291132},
};

constexpr f64 kReservationBudgetMs = 42.13398132932025;
constexpr PinnedFrame kReservation[] = {
    {"serial", 0, false, 59.947749875060055},
    {"serial", 0, false, 49.57497181008673},
    {"serial", 0, false, 50.643511878742757},
    {"serial", 0, false, 2.9783855386911045},
    {"serial", 0, false, 14.814212690402265},
    {"serial", 0, false, 39.503593233074348},
    {"serial", 0, false, 41.763818154174672},
    {"serial", 0, false, 40.761402014697623},
    {"serial", 0, false, 41.383159880233947},
    {"serial", 0, false, 41.665388827747805},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.60823656587182},
    {"ZOOMx2", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.914526157694425},
    {"ZOOMx2", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"MKX_FULLx2 ZOOMx2", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.253812487571778},
    {"serial", 0, true, 43.563361242702399},
    {"ZOOMx2", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"ZOOMx2", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"serial", 0, true, 42.13398132932025},
    {"ZOOMx2", 0, true, 42.772595812427085},
    {"RDG_FULLx4 MKX_FULLx4 ENHx2 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx2 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx2 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx2 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, false, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, false, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_FULLx4 MKX_FULLx4 ENHx4 ZOOMx4", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"RDG_ROIx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
    {"ENHx2 ZOOMx2", 0, true, 42.13398132932025},
};
// clang-format on

TEST(ManagerTimeline, Fig7LatencyConfiguration) {
  ManagerConfig mc;
  mc.warmup_frames = kWarmup;
  mc.budget_headroom = 1.0;
  mc.max_stripes_per_task = 2;
  expect_timeline(test_sequence(/*marker_dropouts=*/true), mc, kFig7BudgetMs,
                  kFig7);
}

TEST(ManagerTimeline, ReservationConfiguration) {
  ManagerConfig mc;
  mc.warmup_frames = kWarmup;
  expect_timeline(test_sequence(/*marker_dropouts=*/false), mc,
                  kReservationBudgetMs, kReservation);
}

}  // namespace
}  // namespace tc::rt
