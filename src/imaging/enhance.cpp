// ENH — enhancement by motion-compensated temporal integration.
//
// The registered frames are averaged in a *stent-aligned reference frame*:
// every incoming frame is warped by the rigid transform defined by its
// marker couple and the reference couple (captured when integration
// (re)starts) and blended straight into the accumulator, in place, one row
// band at a time (enhance_rows; bands are independent, so ENH stripes).
// Integrating in reference coordinates — rather than re-warping the
// accumulator each frame — avoids cumulative resampling blur, so quantum
// noise integrates down while the stent stays sharp ("temporal integration
// of the registered image frames according to the balloon markers", paper
// §3).  Table 1's full-frame input and two full-frame float intermediates
// are the model's incoming frame, warped copy and accumulator (enhance_work
// keeps that accounting; the host kernel needs no warped copy); the
// execution time is constant.

#include <cassert>
#include <cmath>

#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

/// The rigid map that takes reference coordinates to the current frame:
/// out(p_ref) = frame(c_cur + R(-phi) * (p_ref - c_ref)), where phi rotates
/// the current couple's axis onto the reference couple's.
RigidCoords reference_to_current(const Couple& cur, const Couple& ref) {
  const f64 cur_angle = std::atan2(cur.b.y - cur.a.y, cur.b.x - cur.a.x);
  const f64 ref_angle = std::atan2(ref.b.y - ref.a.y, ref.b.x - ref.a.x);
  const Point2f c_cur{0.5 * (cur.a.x + cur.b.x), 0.5 * (cur.a.y + cur.b.y)};
  const Point2f c_ref{0.5 * (ref.a.x + ref.b.x), 0.5 * (ref.a.y + ref.b.y)};
  return RigidCoords(c_cur, c_ref, Point2f{0.0, 0.0}, ref_angle - cur_angle);
}

}  // namespace

void enhance_rows(const ImageF32& frame, const Couple& cur_couple,
                  const Couple& ref_couple, const EnhanceParams& params,
                  bool restart, ImageF32& accumulator, IndexRange rows) {
  assert(accumulator.width() == frame.width() &&
         accumulator.height() == frame.height());
  assert(rows.lo >= 0 && rows.hi <= frame.height());
  RigidCoords coords = reference_to_current(cur_couple, ref_couple);
  if (restart) {
    // (Re)start integration: the accumulator adopts the warped frame.
    bilinear_rows(frame, frame.width(), rows, coords,
                  [&accumulator](i32 y, i32 x0, std::span<const f32> seg) {
                    std::copy(seg.begin(), seg.end(), accumulator.row(y) + x0);
                  });
    return;
  }
  const f32 g = params.integration_gain;
  bilinear_rows(frame, frame.width(), rows, coords,
                [&accumulator, g](i32 y, i32 x0, std::span<const f32> seg) {
                  f32* acc = accumulator.row(y) + x0;
                  for (usize i = 0; i < seg.size(); ++i) {
                    acc[i] = (1.0f - g) * acc[i] + g * seg[i];
                  }
                });
}

WorkReport enhance_work(u64 frame_pixels, bool restart, Rect roi) {
  WorkReport work;
  // Warp: rotation math on top of the 4-tap gather.
  work.pixel_ops += frame_pixels * 22;
  work.bytes_read += frame_pixels * 4 * sizeof(f32);
  work.bytes_written += frame_pixels * sizeof(f32);
  if (restart) {
    work.bytes_written += frame_pixels * sizeof(f32);
  } else {
    // Blend; the warped frame is a full-frame intermediate of the model.
    work.pixel_ops += frame_pixels * 3;
    work.bytes_read += 2 * frame_pixels * sizeof(f32);
    work.bytes_written += frame_pixels * sizeof(f32);
    work.intermediate_bytes += frame_pixels * sizeof(f32);
  }
  // ROI crop.
  const u64 roi_bytes = static_cast<u64>(roi.area()) * sizeof(f32);
  work.bytes_read += roi_bytes;
  work.bytes_written += roi_bytes;

  work.input_bytes += frame_pixels * sizeof(u16);
  work.intermediate_bytes += frame_pixels * sizeof(f32);  // accumulator
  work.output_bytes += roi_bytes;
  work.data_parallel = true;
  return work;
}

EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                      const ImageF32& accumulator, const Couple& cur_couple,
                      const Couple& ref_couple, const EnhanceParams& params) {
  Rect r = clamp_rect(roi, cur_frame.width(), cur_frame.height());
  assert(!r.empty());
  const bool restart = accumulator.empty() ||
                       accumulator.width() != cur_frame.width() ||
                       accumulator.height() != cur_frame.height();
  EnhanceResult result;
  result.accumulator =
      restart ? ImageF32(cur_frame.width(), cur_frame.height()) : accumulator;
  enhance_rows(cur_frame, cur_couple, ref_couple, params, restart,
               result.accumulator, IndexRange{0, cur_frame.height()});
  result.enhanced_roi = result.accumulator.crop(r);
  result.work = enhance_work(cur_frame.size(), restart, r);
  return result;
}

EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                      const ImageF32& accumulator, f64 dx, f64 dy,
                      const EnhanceParams& params) {
  // Translation-only compatibility wrapper: synthesize couples so that the
  // current frame is shifted by (-dx, -dy) into the accumulator's frame.
  Couple cur{Point2f{100.0 + dx, 100.0 + dy},
             Point2f{200.0 + dx, 100.0 + dy}, 1.0};
  Couple ref{Point2f{100.0, 100.0}, Point2f{200.0, 100.0}, 1.0};
  return enhance(cur_frame, roi, accumulator, cur, ref, params);
}

}  // namespace tc::img
