// Low-level pixel kernels shared by the pipeline tasks.
//
// Every kernel exists in a row-range form so stripe (data-parallel)
// partitioning can compute disjoint output row bands that are bit-identical
// to a serial run: each band reads whatever input halo it needs from the
// full input image.  All kernels optionally accumulate a WorkReport.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/work_report.hpp"

namespace tc::img {

/// Normalized odd-length 1-D Gaussian kernel with radius ceil(3*sigma).
[[nodiscard]] std::vector<f32> gaussian_kernel(f64 sigma);

/// Separable Gaussian blur of the full image.
[[nodiscard]] ImageF32 gaussian_blur(const ImageF32& in, f64 sigma,
                                     WorkReport* wr = nullptr);

/// Separable Gaussian blur producing only output rows [rows.lo, rows.hi).
/// `out` must already have the dimensions of `in`.
void gaussian_blur_rows(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, WorkReport* wr = nullptr);

/// As gaussian_blur_rows, but restricted to output columns
/// [cols.lo, cols.hi) as well — ROI processing only pays for ROI columns.
void gaussian_blur_rect(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, IndexRange cols,
                        WorkReport* wr = nullptr);

/// Second-derivative (Hessian) images computed by central differences on a
/// pre-smoothed image.
struct HessianImages {
  ImageF32 xx;
  ImageF32 xy;
  ImageF32 yy;
};

[[nodiscard]] HessianImages make_hessian_images(i32 width, i32 height);

/// Fill h.xx/h.xy/h.yy for rows [rows.lo, rows.hi).
void hessian_rows(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  WorkReport* wr = nullptr);

/// Column-restricted variant (reads smooth at cols expanded by 1).
void hessian_rect(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  IndexRange cols, WorkReport* wr = nullptr);

/// Ridgeness response: the largest positive Hessian eigenvalue (dark curvi-
/// linear structures on a bright background give a strong positive second
/// derivative across the ridge).  Fills rows [rows.lo, rows.hi) of `out`.
void ridgeness_rows(const HessianImages& h, ImageF32& out, IndexRange rows,
                    WorkReport* wr = nullptr);

/// Per-pixel absolute temporal difference |a - b| (the motion criterion used
/// by the registration stage).  Images must have identical dimensions.
[[nodiscard]] ImageF32 temporal_difference(const ImageF32& a,
                                           const ImageF32& b,
                                           WorkReport* wr = nullptr);

/// Bilinear sample with border clamping.
[[nodiscard]] f32 bilinear_sample(const ImageF32& in, f64 x, f64 y);

/// Output columns per tile of the bilinear row kernel: a tile's source
/// coordinates, per-column terms and samples (9 KiB) live on the stack,
/// whatever the output width.
inline constexpr usize kBilinearTile = 256;

/// Source coordinates of one tile row: output column x0 + i samples the
/// source at (x[i], y[i]).
struct BilinearCoords {
  std::array<f64, kBilinearTile> x;
  std::array<f64, kBilinearTile> y;
};

/// Sample `in` at the first `n` points of `c` into `out`, bit-identical to
/// bilinear_sample: points whose 2x2 footprint lies inside the image skip
/// the clamping, the rest go through bilinear_sample.
void bilinear_gather(const ImageF32& in, const BilinearCoords& c, usize n,
                     f32* out);

/// Source coordinates of a rigid map, out(p) = in(origin + R(-angle) *
/// (p - pivot - shift)), filled row by row for bilinear_rows:
///   rx = (x - pivot.x) - shift.x,  ry = (y - pivot.y) - shift.y,
///   sx = (origin.x + ca*rx) - sa*ry,  sy = (origin.y + sa*rx) + ca*ry,
/// with ca = cos(-angle), sa = sin(-angle).  The column terms are computed
/// once per tile and sa*ry, ca*ry once per row; the f64 operation order is
/// that of the per-pixel formula, so every coordinate is bit-identical to
/// it (a zero shift subtracts exactly).
class RigidCoords {
 public:
  RigidCoords(Point2f origin, Point2f pivot, Point2f shift, f64 angle)
      : origin_(origin), pivot_(pivot), shift_(shift),
        ca_(std::cos(-angle)), sa_(std::sin(-angle)) {}

  void columns(i32 x0, usize n) {
    for (usize i = 0; i < n; ++i) {
      const f64 rx =
          static_cast<f64>(x0 + static_cast<i32>(i)) - pivot_.x - shift_.x;
      col_x_[i] = origin_.x + ca_ * rx;
      col_y_[i] = origin_.y + sa_ * rx;
    }
  }

  void row(i32 y, usize n, BilinearCoords& c) const {
    const f64 ry = static_cast<f64>(y) - pivot_.y - shift_.y;
    const f64 sry = sa_ * ry;
    const f64 cry = ca_ * ry;
    for (usize i = 0; i < n; ++i) {
      c.x[i] = col_x_[i] - sry;
      c.y[i] = col_y_[i] + cry;
    }
  }

 private:
  Point2f origin_;
  Point2f pivot_;
  Point2f shift_;
  f64 ca_;
  f64 sa_;
  std::array<f64, kBilinearTile> col_x_{};
  std::array<f64, kBilinearTile> col_y_{};
};

/// The bilinear row kernel behind every warp (ENH, warp_rigid,
/// translate_bilinear): produces rows [rows.lo, rows.hi) of an out_w-wide
/// output in column tiles.  Per tile, `coords.columns(x0, n)` runs once;
/// per tile row, `coords.row(y, n, c)` fills the source coordinates,
/// bilinear_gather samples them, and `sink(y, x0, samples)` consumes the
/// finished row segment.  Disjoint row bands touch disjoint output rows.
template <typename Coords, typename Sink>
void bilinear_rows(const ImageF32& in, i32 out_w, IndexRange rows,
                   Coords& coords, Sink&& sink) {
  if (rows.empty() || out_w <= 0) return;
  BilinearCoords c{};
  std::array<f32, kBilinearTile> line{};
  for (i32 x0 = 0; x0 < out_w; x0 += static_cast<i32>(kBilinearTile)) {
    const usize n = std::min(kBilinearTile, static_cast<usize>(out_w - x0));
    coords.columns(x0, n);
    for (i32 y = rows.lo; y < rows.hi; ++y) {
      coords.row(y, n, c);
      bilinear_gather(in, c, n, line.data());
      sink(y, x0, std::span<const f32>(line.data(), n));
    }
  }
}

/// Catmull-Rom bicubic sample with border clamping.
[[nodiscard]] f32 bicubic_sample(const ImageF32& in, f64 x, f64 y);

/// Resample the source rectangle `src` of `in` to an out_w x out_h image with
/// bicubic interpolation (the ZOOM task).  A separable kernel: per output
/// pixel the result is bit-identical to bicubic_sample.
[[nodiscard]] ImageF32 resample_bicubic(const ImageF32& in, i32 out_w,
                                        i32 out_h, Rect src,
                                        WorkReport* wr = nullptr);

/// Stripe-safe resample: fills only output rows [rows.lo, rows.hi) of the
/// pre-sized `out` (reads are unrestricted, output row bands are disjoint),
/// so concurrent stripes compose bit-identically to resample_bicubic.
void resample_bicubic_rows(const ImageF32& in, ImageF32& out, Rect src,
                           IndexRange rows, WorkReport* wr = nullptr);

/// As resample_bicubic_rows, writing each sample clamped to [0, 65535] and
/// rounded to u16 (the ZOOM display write).  No work is accounted.
void resample_bicubic_rows_u16(const ImageF32& in, ImageU16& out, Rect src,
                               IndexRange rows);

/// Translate an image by a sub-pixel offset with bilinear interpolation:
/// out(x, y) = in(x + dx, y + dy).
[[nodiscard]] ImageF32 translate_bilinear(const ImageF32& in, f64 dx, f64 dy,
                                          WorkReport* wr = nullptr);

/// Rigid warp with bilinear interpolation: the output is `in` transformed by
/// a rotation of `angle` radians about `center` followed by a translation of
/// (dx, dy) — i.e. out(p) = in(center + R(-angle) * (p - center - d)).
/// With angle = 0 this equals translate_bilinear.
[[nodiscard]] ImageF32 warp_rigid(const ImageF32& in, f64 dx, f64 dy,
                                  f64 angle, Point2f center,
                                  WorkReport* wr = nullptr);

}  // namespace tc::img
