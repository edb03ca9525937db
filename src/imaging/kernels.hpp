// Low-level pixel kernels shared by the pipeline tasks.
//
// Every kernel exists in a row-range form so stripe (data-parallel)
// partitioning can compute disjoint output row bands that are bit-identical
// to a serial run: each band reads whatever input halo it needs from the
// full input image.  All kernels optionally accumulate a WorkReport.
#pragma once

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

/// Translate an image by a sub-pixel offset with bilinear interpolation
/// (used for motion compensation in the ENH task).
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
