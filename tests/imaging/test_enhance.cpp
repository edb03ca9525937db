#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

ImageF32 frame_with_spot(i32 size, Point2f spot, u64 seed, f32 noise) {
  ImageF32 im(size, size, 5000.0f);
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] += static_cast<f32>(rng.normal(0.0, noise));
  }
  for (i32 y = 0; y < size; ++y) {
    for (i32 x = 0; x < size; ++x) {
      f64 d2 = (x - spot.x) * (x - spot.x) + (y - spot.y) * (y - spot.y);
      im.at(x, y) -= static_cast<f32>(2000.0 * std::exp(-d2 / 8.0));
    }
  }
  return im;
}

TEST(Enhance, FirstFrameAdoptsInput) {
  ImageF32 frame = frame_with_spot(64, {32, 32}, 1, 50.0f);
  EnhanceResult r = enhance(frame, Rect{16, 16, 32, 32}, ImageF32(), 0.0, 0.0,
                            EnhanceParams{});
  EXPECT_EQ(r.accumulator, frame);
  EXPECT_EQ(r.enhanced_roi.width(), 32);
  EXPECT_EQ(r.enhanced_roi.height(), 32);
  EXPECT_FLOAT_EQ(r.enhanced_roi.at(0, 0), frame.at(16, 16));
}

TEST(Enhance, BlendsTowardsCurrentFrame) {
  ImageF32 acc(32, 32, 100.0f);
  ImageF32 cur(32, 32, 200.0f);
  EnhanceParams p;
  p.integration_gain = 0.25f;
  EnhanceResult r = enhance(cur, Rect{0, 0, 32, 32}, acc, 0.0, 0.0, p);
  // (1 - g) * 100 + g * 200 = 125.
  EXPECT_NEAR(r.accumulator.at(16, 16), 125.0f, 1e-3f);
}

TEST(Enhance, NoiseIsReducedByIntegration) {
  // Integrate 20 registered frames of a static scene: the noise in the
  // accumulator must drop well below the single-frame noise.
  EnhanceParams p;
  p.integration_gain = 0.2f;
  ImageF32 acc;
  for (i32 t = 0; t < 20; ++t) {
    ImageF32 frame = frame_with_spot(64, {32, 32}, 100 + t, 200.0f);
    EnhanceResult r = enhance(frame, Rect{8, 8, 48, 48}, acc, 0.0, 0.0, p);
    acc = std::move(r.accumulator);
  }
  // Compare pixel noise in a flat region (no spot) against one raw frame.
  auto flat_stddev = [](const ImageF32& im) {
    std::vector<f64> xs;
    for (i32 y = 2; y < 12; ++y) {
      for (i32 x = 50; x < 62; ++x) xs.push_back(im.at(x, y));
    }
    return stddev(xs);
  };
  ImageF32 raw = frame_with_spot(64, {32, 32}, 999, 200.0f);
  EXPECT_LT(flat_stddev(acc), 0.6 * flat_stddev(raw));
}

TEST(Enhance, MotionCompensationKeepsSpotSharp) {
  // The spot moves 2 px right per frame; with correct cumulative
  // displacement the accumulator keeps a deep spot at the *reference*
  // (initial) location — the stabilized view.
  EnhanceParams p;
  p.integration_gain = 0.3f;
  ImageF32 acc;
  for (i32 t = 0; t < 10; ++t) {
    f64 x = 20.0 + 2.0 * t;
    ImageF32 frame = frame_with_spot(64, {x, 32.0}, 200 + t, 100.0f);
    EnhanceResult r =
        enhance(frame, Rect{0, 0, 64, 64}, acc, 2.0 * t, 0.0, p);
    acc = std::move(r.accumulator);
  }
  // Spot depth at the stabilized reference location vs. a trailing spot.
  f32 at_spot = acc.at(20, 32);
  f32 off_spot = acc.at(32, 32);
  EXPECT_LT(at_spot, off_spot - 1000.0f);
}

TEST(Enhance, WithoutCompensationSpotSmears) {
  EnhanceParams p;
  p.integration_gain = 0.3f;
  ImageF32 acc_comp;
  ImageF32 acc_naive;
  for (i32 t = 0; t < 10; ++t) {
    f64 x = 20.0 + 2.0 * t;
    ImageF32 frame = frame_with_spot(64, {x, 32.0}, 300 + t, 50.0f);
    acc_comp =
        enhance(frame, Rect{0, 0, 64, 64}, acc_comp, 2.0 * t, 0.0, p)
            .accumulator;
    acc_naive = enhance(frame, Rect{0, 0, 64, 64}, acc_naive, 0.0, 0.0, p)
                    .accumulator;
  }
  // The compensated accumulator has a deeper (darker) spot at the
  // reference location than anything the smeared one retains there.
  EXPECT_LT(acc_comp.at(20, 32), acc_naive.at(20, 32) - 300.0f);
}

TEST(Enhance, CoupleBasedRotationCompensation) {
  // A spot rotating about the couple centre stays sharp at the reference
  // location when the couple rotation is compensated.
  EnhanceParams p;
  p.integration_gain = 0.3f;
  ImageF32 acc;
  const Point2f c{32.0, 32.0};
  const f64 arm = 12.0;
  Couple ref{Point2f{c.x - arm, c.y}, Point2f{c.x + arm, c.y}, 1.0};
  for (i32 t = 0; t < 8; ++t) {
    f64 phi = 0.05 * t;
    auto rot = [&](f64 offx) {
      return Point2f{c.x + offx * std::cos(phi), c.y + offx * std::sin(phi)};
    };
    Couple cur{rot(-arm), rot(arm), 1.0};
    // The spot rides on marker b.
    ImageF32 frame = frame_with_spot(64, cur.b, 400 + t, 30.0f);
    acc = enhance(frame, Rect{0, 0, 64, 64}, acc, cur, ref, p).accumulator;
  }
  // Sharp spot at the reference marker-b location.
  f32 at_ref = acc.at(static_cast<i32>(c.x + arm), static_cast<i32>(c.y));
  f32 nearby = acc.at(static_cast<i32>(c.x + arm), static_cast<i32>(c.y) - 8);
  EXPECT_LT(at_ref, nearby - 800.0f);
}

TEST(Enhance, AccumulatorSizeMismatchRestarts) {
  ImageF32 small(16, 16, 1.0f);
  ImageF32 frame(32, 32, 7.0f);
  EnhanceResult r = enhance(frame, Rect{0, 0, 16, 16}, small, 0.0, 0.0,
                            EnhanceParams{});
  EXPECT_EQ(r.accumulator, frame);
}

TEST(Enhance, WorkIsFullFrameConstant) {
  // ENH cost does not depend on the ROI size (matches the paper's constant
  // 24 ms model for this task).
  ImageF32 acc(64, 64, 1.0f);
  ImageF32 frame(64, 64, 2.0f);
  EnhanceResult small =
      enhance(frame, Rect{0, 0, 16, 16}, acc, 1.0, 0.0, EnhanceParams{});
  EnhanceResult large =
      enhance(frame, Rect{0, 0, 64, 64}, acc, 1.0, 0.0, EnhanceParams{});
  EXPECT_EQ(small.work.pixel_ops, large.work.pixel_ops);
}

// ---------------------------------------------------------------------------
// Bit identity against a per-pixel oracle.
// ---------------------------------------------------------------------------

/// The per-pixel ENH oracle: warp every reference pixel through the rigid
/// map of the two couples with bilinear_sample, then blend — or, on a
/// restart (empty or differently sized accumulator), adopt the warped frame.
ImageF32 oracle_enhance(const ImageF32& frame, const ImageF32& accumulator,
                        const Couple& cur, const Couple& ref,
                        const EnhanceParams& params) {
  const f64 cur_angle = std::atan2(cur.b.y - cur.a.y, cur.b.x - cur.a.x);
  const f64 ref_angle = std::atan2(ref.b.y - ref.a.y, ref.b.x - ref.a.x);
  const f64 phi = ref_angle - cur_angle;
  const Point2f c_cur{0.5 * (cur.a.x + cur.b.x), 0.5 * (cur.a.y + cur.b.y)};
  const Point2f c_ref{0.5 * (ref.a.x + ref.b.x), 0.5 * (ref.a.y + ref.b.y)};
  const f64 ca = std::cos(-phi);
  const f64 sa = std::sin(-phi);
  ImageF32 warped(frame.width(), frame.height());
  for (i32 y = 0; y < frame.height(); ++y) {
    for (i32 x = 0; x < frame.width(); ++x) {
      f64 rx = static_cast<f64>(x) - c_ref.x;
      f64 ry = static_cast<f64>(y) - c_ref.y;
      f64 sx = c_cur.x + ca * rx - sa * ry;
      f64 sy = c_cur.y + sa * rx + ca * ry;
      warped.at(x, y) = bilinear_sample(frame, sx, sy);
    }
  }
  if (accumulator.empty() || accumulator.width() != frame.width() ||
      accumulator.height() != frame.height()) {
    return warped;
  }
  ImageF32 out(frame.width(), frame.height());
  const f32 g = params.integration_gain;
  for (usize i = 0; i < out.size(); ++i) {
    out.data()[i] =
        (1.0f - g) * accumulator.data()[i] + g * warped.data()[i];
  }
  return out;
}

ImageF32 random_image(i32 w, i32 h, Pcg32& rng) {
  ImageF32 im(w, h);
  for (usize i = 0; i < im.size(); ++i) {
    const f64 u = rng.uniform(0.0, 1.0);
    im.data()[i] =
        u < 0.05 ? 0.0f : static_cast<f32>(rng.uniform(-500.0, 60000.0));
  }
  return im;
}

/// A couple of separation ~`dist` at a random angle in [-pi, pi], centred
/// anywhere within `reach` of the frame (so whole rows can map outside it).
Couple random_couple(i32 w, i32 h, f64 reach, Pcg32& rng) {
  const f64 pi = 3.14159265358979323846;
  const f64 angle = rng.uniform(-pi, pi);
  const f64 dist = rng.uniform(0.5, 1.0 + 0.5 * std::max(w, h));
  const Point2f c{rng.uniform(-reach, w + reach), rng.uniform(-reach, h + reach)};
  const Point2f half{0.5 * dist * std::cos(angle), 0.5 * dist * std::sin(angle)};
  return Couple{Point2f{c.x - half.x, c.y - half.y},
                Point2f{c.x + half.x, c.y + half.y}, 1.0};
}

/// Frame shapes: degenerate 1x1 / 1xN / Nx1 plus random rectangles, some
/// wider than one 256-column tile of the row kernel.
std::vector<std::pair<i32, i32>> frame_shapes(Pcg32& rng) {
  std::vector<std::pair<i32, i32>> shapes = {
      {1, 1}, {1, 17}, {23, 1}, {2, 2}, {3, 5}, {300, 7}};
  for (i32 i = 0; i < 12; ++i) {
    shapes.emplace_back(rng.uniform_int(1, 80), rng.uniform_int(1, 80));
  }
  return shapes;
}

/// Split [0, height) into `bands` contiguous row ranges of random lengths.
std::vector<IndexRange> random_bands(i32 height, i32 bands, Pcg32& rng) {
  std::vector<i32> cuts = {0, height};
  for (i32 b = 1; b < bands; ++b) cuts.push_back(rng.uniform_int(0, height));
  std::sort(cuts.begin(), cuts.end());
  std::vector<IndexRange> out;
  for (usize i = 0; i + 1 < cuts.size(); ++i) {
    out.push_back(IndexRange{cuts[i], cuts[i + 1]});
  }
  return out;
}

/// Number of pixels whose bit patterns differ.
usize bit_mismatches(const ImageF32& a, const ImageF32& b) {
  if (a.width() != b.width() || a.height() != b.height()) return a.size() + 1;
  usize bad = 0;
  for (usize i = 0; i < a.size(); ++i) {
    if (std::bit_cast<u32>(a.data()[i]) != std::bit_cast<u32>(b.data()[i])) {
      ++bad;
    }
  }
  return bad;
}

TEST(EnhanceOracle, EnhanceMatchesPerPixelOracle) {
  Pcg32 rng(41);
  EnhanceParams p;
  p.integration_gain = 0.3f;
  for (const auto& [w, h] : frame_shapes(rng)) {
    for (i32 trial = 0; trial < 6; ++trial) {
      const ImageF32 frame = random_image(w, h, rng);
      const f64 reach = trial < 3 ? 0.0 : 2.0 * std::max(w, h);
      const Couple cur = random_couple(w, h, reach, rng);
      const Couple ref = random_couple(w, h, reach, rng);
      const Rect roi{0, 0, w, h};
      // Restart (empty and mismatched accumulator) and steady state.
      for (const ImageF32& acc :
           {ImageF32(), ImageF32(w + 1, h, 3.0f), random_image(w, h, rng)}) {
        const EnhanceResult r = enhance(frame, roi, acc, cur, ref, p);
        const ImageF32 want = oracle_enhance(frame, acc, cur, ref, p);
        ASSERT_EQ(bit_mismatches(r.accumulator, want), 0u)
            << w << "x" << h << " trial " << trial;
        ASSERT_EQ(r.enhanced_roi, want);
      }
    }
  }
}

TEST(EnhanceOracle, RowBandsInPlaceMatchPerPixelOracle) {
  Pcg32 rng(42);
  EnhanceParams p;
  p.integration_gain = 0.25f;
  for (const auto& [w, h] : frame_shapes(rng)) {
    for (i32 trial = 0; trial < 6; ++trial) {
      const ImageF32 frame = random_image(w, h, rng);
      const f64 reach = trial % 2 == 0 ? 0.0 : 2.0 * std::max(w, h);
      const Couple cur = random_couple(w, h, reach, rng);
      const Couple ref = random_couple(w, h, reach, rng);
      const std::vector<IndexRange> bands =
          random_bands(h, rng.uniform_int(1, 5), rng);
      for (const bool restart : {true, false}) {
        // Restart writes every pixel, so start from stale contents.
        const ImageF32 before = random_image(w, h, rng);
        ImageF32 acc = before;
        for (const IndexRange& band : bands) {
          enhance_rows(frame, cur, ref, p, restart, acc, band);
        }
        const ImageF32 want =
            oracle_enhance(frame, restart ? ImageF32() : before, cur, ref, p);
        ASSERT_EQ(bit_mismatches(acc, want), 0u)
            << w << "x" << h << " trial " << trial << " bands "
            << bands.size() << (restart ? " restart" : " steady");
      }
    }
  }
}

TEST(EnhanceOracle, WorkReportPinned) {
  // Values of the modelled task (warp + blend + crop), recorded before the
  // kernel was fused: the simulated timeline prices exactly these.
  Pcg32 rng(43);
  const ImageF32 frame = random_image(64, 48, rng);
  const Couple cur{Point2f{20.0, 22.0}, Point2f{45.0, 30.0}, 1.0};
  const Couple ref{Point2f{18.0, 20.0}, Point2f{44.0, 24.0}, 1.0};
  const Rect roi{10, 5, 20, 30};

  const WorkReport steady =
      enhance(frame, roi, random_image(64, 48, rng), cur, ref, EnhanceParams{})
          .work;
  EXPECT_EQ(steady.pixel_ops, 76800u);
  EXPECT_EQ(steady.feature_ops, 0u);
  EXPECT_EQ(steady.bytes_read, 76128u);
  EXPECT_EQ(steady.bytes_written, 26976u);
  EXPECT_EQ(steady.input_bytes, 6144u);
  EXPECT_EQ(steady.intermediate_bytes, 24576u);
  EXPECT_EQ(steady.output_bytes, 2400u);
  EXPECT_EQ(steady.items, 0u);
  EXPECT_TRUE(steady.data_parallel);

  const WorkReport restart =
      enhance(frame, roi, ImageF32(), cur, ref, EnhanceParams{}).work;
  EXPECT_EQ(restart.pixel_ops, 67584u);
  EXPECT_EQ(restart.bytes_read, 51552u);
  EXPECT_EQ(restart.bytes_written, 26976u);
  EXPECT_EQ(restart.input_bytes, 6144u);
  EXPECT_EQ(restart.intermediate_bytes, 12288u);
  EXPECT_EQ(restart.output_bytes, 2400u);
  EXPECT_TRUE(restart.data_parallel);
}

}  // namespace
}  // namespace tc::img
