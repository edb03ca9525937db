// Bit-identity of the bicubic resamplers against the point sampler.
//
// resample_bicubic[_rows] and zoom_rows must produce, for every output pixel,
// exactly the value bicubic_sample gives at that pixel's source coordinate
// (rounded to u16 for ZOOM) — whatever the stripe split, the source
// rectangle or the scale.  The comparison is on the bit pattern, so a
// reordered sum fails it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

ImageF32 random_image(i32 w, i32 h, Pcg32& rng) {
  ImageF32 im(w, h);
  for (usize i = 0; i < im.size(); ++i) {
    // Exact zeros, negatives and values above the u16 range exercise the
    // sign of zero and the ZOOM clamp.
    const f64 u = rng.uniform(0.0, 1.0);
    im.data()[i] = u < 0.05 ? 0.0f
                            : static_cast<f32>(rng.uniform(-2000.0, 70000.0));
  }
  return im;
}

/// Split [0, height) into `bands` contiguous row ranges of random lengths.
std::vector<IndexRange> random_bands(i32 height, i32 bands, Pcg32& rng) {
  std::vector<i32> cuts = {0, height};
  for (i32 b = 1; b < bands; ++b) {
    cuts.push_back(rng.uniform_int(0, height));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<IndexRange> out;
  for (usize i = 0; i + 1 < cuts.size(); ++i) {
    out.push_back(IndexRange{cuts[i], cuts[i + 1]});
  }
  return out;
}

/// A source rectangle inside a w x h image; `edge` picks which borders it
/// touches (bit 0 left, 1 top, 2 right, 3 bottom).
Rect random_rect(i32 w, i32 h, u32 edge, Pcg32& rng) {
  i32 x0 = (edge & 1u) ? 0 : rng.uniform_int(0, w - 1);
  i32 y0 = (edge & 2u) ? 0 : rng.uniform_int(0, h - 1);
  i32 x1 = (edge & 4u) ? w : rng.uniform_int(x0 + 1, w);
  i32 y1 = (edge & 8u) ? h : rng.uniform_int(y0 + 1, h);
  return Rect{x0, y0, x1 - x0, y1 - y0};
}

/// The per-pixel oracle: bicubic_sample at the output pixel's centre mapped
/// into `src`.
f32 oracle(const ImageF32& in, Rect src, i32 out_w, i32 out_h, i32 x, i32 y) {
  const f64 sx = static_cast<f64>(src.w) / static_cast<f64>(out_w);
  const f64 sy = static_cast<f64>(src.h) / static_cast<f64>(out_h);
  return bicubic_sample(in, src.x + (static_cast<f64>(x) + 0.5) * sx - 0.5,
                        src.y + (static_cast<f64>(y) + 0.5) * sy - 0.5);
}

u16 display(f32 v) {
  return static_cast<u16>(std::clamp(v, 0.0f, 65535.0f) + 0.5f);
}

struct Case {
  i32 in_w, in_h;
  Rect src;
  i32 out_w, out_h;
  i32 bands;
};

/// Runs resample_bicubic_rows band by band over `c` and counts pixels whose
/// bits differ from the oracle.
i64 resample_mismatches(const ImageF32& in, const Case& c, Pcg32& rng) {
  ImageF32 out(c.out_w, c.out_h, std::numeric_limits<f32>::quiet_NaN());
  for (IndexRange rows : random_bands(c.out_h, c.bands, rng)) {
    resample_bicubic_rows(in, out, c.src, rows);
  }
  const ImageF32 whole = resample_bicubic(in, c.out_w, c.out_h, c.src);
  i64 bad = 0;
  for (i32 y = 0; y < c.out_h; ++y) {
    for (i32 x = 0; x < c.out_w; ++x) {
      const u32 want =
          std::bit_cast<u32>(oracle(in, c.src, c.out_w, c.out_h, x, y));
      bad += std::bit_cast<u32>(out.at(x, y)) != want;
      bad += std::bit_cast<u32>(whole.at(x, y)) != want;
    }
  }
  return bad;
}

/// Runs zoom_rows band by band over the whole of `in` and counts pixels that
/// differ from the rounded oracle.
i64 zoom_mismatches(const ImageF32& in, i32 out_w, i32 out_h, i32 bands,
                    Pcg32& rng) {
  ZoomParams p;
  p.output_width = out_w;
  p.output_height = out_h;
  ImageU16 out(out_w, out_h, 0xBEEF);
  WorkReport work;
  for (IndexRange rows : random_bands(out_h, bands, rng)) {
    zoom_rows(in, p, out, rows, work);
  }
  i64 bad = 0;
  for (i32 y = 0; y < out_h; ++y) {
    for (i32 x = 0; x < out_w; ++x) {
      bad += out.at(x, y) !=
             display(oracle(in, in.full_rect(), out_w, out_h, x, y));
    }
  }
  return bad;
}

TEST(ResampleBitIdentity, RandomShapesRectsAndBands) {
  Pcg32 rng(2024);
  for (i32 trial = 0; trial < 300; ++trial) {
    Case c;
    c.in_w = rng.uniform_int(1, 40);
    c.in_h = rng.uniform_int(1, 40);
    c.src = random_rect(c.in_w, c.in_h,
                        static_cast<u32>(rng.uniform_int(0, 15)), rng);
    c.out_w = rng.uniform_int(1, 70);
    c.out_h = rng.uniform_int(1, 70);
    c.bands = rng.uniform_int(1, 5);
    const ImageF32 in = random_image(c.in_w, c.in_h, rng);
    EXPECT_EQ(resample_mismatches(in, c, rng), 0)
        << "trial " << trial << ": " << c.in_w << "x" << c.in_h << " rect ("
        << c.src.x << "," << c.src.y << "," << c.src.w << "," << c.src.h
        << ") -> " << c.out_w << "x" << c.out_h << " in " << c.bands
        << " bands";
  }
}

TEST(ResampleBitIdentity, EdgeShapes) {
  Pcg32 rng(7);
  const ImageF32 big = random_image(33, 29, rng);
  const ImageF32 pixel = random_image(1, 1, rng);
  const ImageF32 column = random_image(1, 17, rng);
  // An infinite pixel turns every tap that reads it with weight 0 into NaN,
  // so only a kernel that skips zero-weight rows as bicubic_sample does
  // keeps the rows next to it finite at integer-aligned source rows.
  ImageF32 spike = random_image(12, 10, rng);
  spike.at(5, 4) = std::numeric_limits<f32>::infinity();
  const std::vector<std::pair<const ImageF32*, Case>> cases = {
      // 1-pixel sources.
      {&pixel, {1, 1, Rect{0, 0, 1, 1}, 9, 7, 3}},
      {&big, {33, 29, Rect{32, 28, 1, 1}, 5, 4, 2}},
      {&column, {1, 17, Rect{0, 0, 1, 17}, 6, 40, 5}},
      // Outputs narrower than the 4-tap kernel.
      {&big, {33, 29, Rect{0, 0, 33, 29}, 1, 1, 1}},
      {&big, {33, 29, Rect{0, 0, 33, 29}, 3, 2, 2}},
      {&big, {33, 29, Rect{4, 5, 20, 20}, 2, 3, 3}},
      // Downscales, including the half-zoom QoS level.
      {&big, {33, 29, Rect{0, 0, 33, 29}, 16, 14, 4}},
      {&big, {33, 29, Rect{0, 0, 32, 28}, 16, 14, 1}},
      {&big, {33, 29, Rect{1, 1, 31, 27}, 5, 4, 5}},
      // Wider than one column tile of the kernel.
      {&big, {33, 29, Rect{0, 0, 33, 29}, 300, 9, 2}},
      // Identity scale: integer-aligned taps with zero weights.
      {&spike, {12, 10, Rect{0, 0, 12, 10}, 12, 10, 3}},
  };
  for (usize i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(resample_mismatches(*cases[i].first, cases[i].second, rng), 0)
        << "case " << i;
  }
}

TEST(ResampleBitIdentity, ZoomMatchesRoundedOracle) {
  Pcg32 rng(99);
  for (i32 trial = 0; trial < 120; ++trial) {
    const ImageF32 in =
        random_image(rng.uniform_int(1, 48), rng.uniform_int(1, 48), rng);
    const i32 out_w = rng.uniform_int(1, 96);
    const i32 out_h = rng.uniform_int(1, 96);
    const i32 bands = rng.uniform_int(1, 5);
    EXPECT_EQ(zoom_mismatches(in, out_w, out_h, bands, rng), 0)
        << "trial " << trial;
  }
}

TEST(ResampleBitIdentity, ZoomWorkloadShapes) {
  Pcg32 rng(5);
  // pipeline_512's ROI zoom, and the full-frame 256² zoom at full and half
  // display resolution (quality level 3).
  const ImageF32 roi = random_image(171, 165, rng);
  EXPECT_EQ(zoom_mismatches(roi, 512, 512, 4, rng), 0);
  const ImageF32 frame = random_image(256, 256, rng);
  EXPECT_EQ(zoom_mismatches(frame, 256, 256, 3, rng), 0);
  EXPECT_EQ(zoom_mismatches(frame, 128, 128, 2, rng), 0);
}

// The work accounting prices the paper's per-pixel 16-tap algorithm, not the
// separable implementation: these values were recorded with the per-pixel
// kernels and must not move.
TEST(ResampleWorkReport, ZoomFieldsArePinned) {
  ZoomParams p;
  p.output_width = 512;
  p.output_height = 480;
  const ZoomResult r = zoom(ImageF32(171, 165, 1.0f), p);
  EXPECT_EQ(r.work.pixel_ops, 9830400u);
  EXPECT_EQ(r.work.feature_ops, 0u);
  EXPECT_EQ(r.work.bytes_read, 15728640u);
  EXPECT_EQ(r.work.bytes_written, 491520u);
  EXPECT_EQ(r.work.input_bytes, 112860u);
  EXPECT_EQ(r.work.intermediate_bytes, 112860u);
  EXPECT_EQ(r.work.output_bytes, 491520u);
  EXPECT_EQ(r.work.items, 0u);
  EXPECT_TRUE(r.work.data_parallel);
}

TEST(ResampleWorkReport, ResampleBicubicFieldsArePinned) {
  WorkReport work;
  const ImageF32 out =
      resample_bicubic(ImageF32(40, 30, 1.0f), 50, 37, Rect{3, 2, 20, 15},
                       &work);
  EXPECT_EQ(work.pixel_ops, 74000u);
  EXPECT_EQ(work.feature_ops, 0u);
  EXPECT_EQ(work.bytes_read, 118400u);
  EXPECT_EQ(work.bytes_written, 7400u);
  EXPECT_EQ(work.input_bytes, 0u);
  EXPECT_EQ(work.intermediate_bytes, 0u);
  EXPECT_EQ(work.output_bytes, 0u);
  EXPECT_EQ(work.items, 0u);
  EXPECT_FALSE(work.data_parallel);
}

}  // namespace
}  // namespace tc::img
