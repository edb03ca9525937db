#include "imaging/kernels.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace tc::img {
namespace {

/// Account for one separable-convolution pass over `pixels` pixels with a
/// kernel of length `klen`.
void account_conv(WorkReport* wr, u64 pixels, u64 klen) {
  if (wr == nullptr) return;
  wr->pixel_ops += pixels * klen * 2;  // one MAC per tap
  wr->bytes_read += pixels * klen * sizeof(f32);
  wr->bytes_written += pixels * sizeof(f32);
}

}  // namespace

std::vector<f32> gaussian_kernel(f64 sigma) {
  assert(sigma > 0.0);
  i32 radius = static_cast<i32>(std::ceil(3.0 * sigma));
  if (radius < 1) radius = 1;
  std::vector<f32> k(static_cast<usize>(2 * radius + 1));
  f64 sum = 0.0;
  for (i32 i = -radius; i <= radius; ++i) {
    f64 v = std::exp(-0.5 * (static_cast<f64>(i) / sigma) *
                     (static_cast<f64>(i) / sigma));
    k[static_cast<usize>(i + radius)] = static_cast<f32>(v);
    sum += v;
  }
  for (f32& v : k) v = static_cast<f32>(v / sum);
  return k;
}

void gaussian_blur_rect(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, IndexRange cols, WorkReport* wr) {
  assert(out.width() == in.width() && out.height() == in.height());
  const std::vector<f32> k = gaussian_kernel(sigma);
  const i32 radius = static_cast<i32>(k.size() / 2);
  const i32 w = in.width();
  const i32 h = in.height();
  const i32 y0 = std::clamp(rows.lo, 0, h);
  const i32 y1 = std::clamp(rows.hi, 0, h);
  const i32 x0 = std::clamp(cols.lo, 0, w);
  const i32 x1 = std::clamp(cols.hi, 0, w);
  if (y1 <= y0 || x1 <= x0) return;

  // Horizontal pass over the halo-expanded row band [ty0, ty1), restricted
  // to the requested columns (each output column only needs its own tmp
  // column; the horizontal halo reads the input directly).
  const i32 ty0 = std::max(0, y0 - radius);
  const i32 ty1 = std::min(h, y1 + radius);
  ImageF32 tmp(x1 - x0, ty1 - ty0);
  for (i32 y = ty0; y < ty1; ++y) {
    const f32* src = in.row(y);
    f32* dst = tmp.row(y - ty0);
    for (i32 x = x0; x < x1; ++x) {
      f32 acc = 0.0f;
      for (i32 t = -radius; t <= radius; ++t) {
        i32 xi = std::clamp(x + t, 0, w - 1);
        acc += src[xi] * k[static_cast<usize>(t + radius)];
      }
      dst[x - x0] = acc;
    }
  }
  account_conv(wr, static_cast<u64>(x1 - x0) * static_cast<u64>(ty1 - ty0),
               k.size());

  // Vertical pass writing only the requested output rows/columns.
  for (i32 y = y0; y < y1; ++y) {
    f32* dst = out.row(y);
    for (i32 x = x0; x < x1; ++x) {
      f32 acc = 0.0f;
      for (i32 t = -radius; t <= radius; ++t) {
        i32 yi = std::clamp(y + t, ty0, ty1 - 1);
        acc += tmp.at(x - x0, yi - ty0) * k[static_cast<usize>(t + radius)];
      }
      dst[x] = acc;
    }
  }
  account_conv(wr, static_cast<u64>(x1 - x0) * static_cast<u64>(y1 - y0),
               k.size());
  if (wr != nullptr) {
    wr->intermediate_bytes += tmp.bytes();
  }
}

void gaussian_blur_rows(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, WorkReport* wr) {
  gaussian_blur_rect(in, sigma, out, rows, IndexRange{0, in.width()}, wr);
}

ImageF32 gaussian_blur(const ImageF32& in, f64 sigma, WorkReport* wr) {
  ImageF32 out(in.width(), in.height());
  gaussian_blur_rows(in, sigma, out, IndexRange{0, in.height()}, wr);
  return out;
}

HessianImages make_hessian_images(i32 width, i32 height) {
  return HessianImages{ImageF32(width, height), ImageF32(width, height),
                       ImageF32(width, height)};
}

void hessian_rect(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  IndexRange cols, WorkReport* wr) {
  const i32 w = smooth.width();
  const i32 hh = smooth.height();
  const i32 y0 = std::clamp(rows.lo, 0, hh);
  const i32 y1 = std::clamp(rows.hi, 0, hh);
  const i32 x0 = std::clamp(cols.lo, 0, w);
  const i32 x1 = std::clamp(cols.hi, 0, w);
  for (i32 y = y0; y < y1; ++y) {
    for (i32 x = x0; x < x1; ++x) {
      f32 c = smooth.at_clamped(x, y);
      f32 xm = smooth.at_clamped(x - 1, y);
      f32 xp = smooth.at_clamped(x + 1, y);
      f32 ym = smooth.at_clamped(x, y - 1);
      f32 yp = smooth.at_clamped(x, y + 1);
      f32 pp = smooth.at_clamped(x + 1, y + 1);
      f32 pm = smooth.at_clamped(x + 1, y - 1);
      f32 mp = smooth.at_clamped(x - 1, y + 1);
      f32 mm = smooth.at_clamped(x - 1, y - 1);
      h.xx.at(x, y) = xp - 2.0f * c + xm;
      h.yy.at(x, y) = yp - 2.0f * c + ym;
      h.xy.at(x, y) = 0.25f * (pp - pm - mp + mm);
    }
  }
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(x1 - x0) * static_cast<u64>(y1 - y0);
    wr->pixel_ops += pixels * 14;
    wr->bytes_read += pixels * 9 * sizeof(f32);
    wr->bytes_written += pixels * 3 * sizeof(f32);
  }
}

void hessian_rows(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  WorkReport* wr) {
  hessian_rect(smooth, h, rows, IndexRange{0, smooth.width()}, wr);
}

void ridgeness_rows(const HessianImages& h, ImageF32& out, IndexRange rows,
                    WorkReport* wr) {
  const i32 w = out.width();
  const i32 hh = out.height();
  const i32 y0 = std::clamp(rows.lo, 0, hh);
  const i32 y1 = std::clamp(rows.hi, 0, hh);
  for (i32 y = y0; y < y1; ++y) {
    for (i32 x = 0; x < w; ++x) {
      f32 xx = h.xx.at(x, y);
      f32 yy = h.yy.at(x, y);
      f32 xy = h.xy.at(x, y);
      f32 tr = xx + yy;
      f32 det_term = std::sqrt((xx - yy) * (xx - yy) + 4.0f * xy * xy);
      f32 lambda_max = 0.5f * (tr + det_term);
      out.at(x, y) = lambda_max > 0.0f ? lambda_max : 0.0f;
    }
  }
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(w) * static_cast<u64>(y1 - y0);
    wr->pixel_ops += pixels * 10;
    wr->bytes_read += pixels * 3 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
}

ImageF32 temporal_difference(const ImageF32& a, const ImageF32& b,
                             WorkReport* wr) {
  assert(a.width() == b.width() && a.height() == b.height());
  ImageF32 out(a.width(), a.height());
  const f32* pa = a.data();
  const f32* pb = b.data();
  f32* po = out.data();
  for (usize i = 0; i < a.size(); ++i) po[i] = std::fabs(pa[i] - pb[i]);
  if (wr != nullptr) {
    wr->pixel_ops += a.size() * 2;
    wr->bytes_read += 2 * a.bytes();
    wr->bytes_written += out.bytes();
  }
  return out;
}

namespace {
/// Blend of a 2x2 footprint at fractional offsets (fx, fy) — the one
/// bilinear formula of bilinear_sample and bilinear_gather.
inline f32 bilinear_blend(f32 v00, f32 v10, f32 v01, f32 v11, f32 fx,
                          f32 fy) {
  f32 top = v00 * (1.0f - fx) + v10 * fx;
  f32 bot = v01 * (1.0f - fx) + v11 * fx;
  return top * (1.0f - fy) + bot * fy;
}
}  // namespace

f32 bilinear_sample(const ImageF32& in, f64 x, f64 y) {
  i32 x0 = static_cast<i32>(std::floor(x));
  i32 y0 = static_cast<i32>(std::floor(y));
  f32 fx = static_cast<f32>(x - x0);
  f32 fy = static_cast<f32>(y - y0);
  return bilinear_blend(in.at_clamped(x0, y0), in.at_clamped(x0 + 1, y0),
                        in.at_clamped(x0, y0 + 1),
                        in.at_clamped(x0 + 1, y0 + 1), fx, fy);
}

void bilinear_gather(const ImageF32& in, const BilinearCoords& c, usize n,
                     f32* out) {
  assert(n <= kBilinearTile);
  const f64 x_hi = static_cast<f64>(in.width() - 1);
  const f64 y_hi = static_cast<f64>(in.height() - 1);
  const usize stride = static_cast<usize>(in.width());
  for (usize i = 0; i < n; ++i) {
    const f64 x = c.x[i];
    const f64 y = c.y[i];
    if (x >= 0.0 && x < x_hi && y >= 0.0 && y < y_hi) {
      // The 2x2 footprint is inside: truncation is floor, nothing clamps.
      const i32 x0 = static_cast<i32>(x);
      const i32 y0 = static_cast<i32>(y);
      const f32* r0 = in.row(y0) + x0;
      const f32* r1 = r0 + stride;
      out[i] = bilinear_blend(r0[0], r0[1], r1[0], r1[1],
                              static_cast<f32>(x - x0),
                              static_cast<f32>(y - y0));
    } else {
      out[i] = bilinear_sample(in, x, y);
    }
  }
}

namespace {
/// Catmull-Rom weight for |t| <= 2.
f32 catmull_rom(f32 t) {
  t = std::fabs(t);
  if (t < 1.0f) return 1.5f * t * t * t - 2.5f * t * t + 1.0f;
  if (t < 2.0f) return -0.5f * t * t * t + 2.5f * t * t - 4.0f * t + 2.0f;
  return 0.0f;
}
}  // namespace

f32 bicubic_sample(const ImageF32& in, f64 x, f64 y) {
  i32 x0 = static_cast<i32>(std::floor(x));
  i32 y0 = static_cast<i32>(std::floor(y));
  f32 fx = static_cast<f32>(x - x0);
  f32 fy = static_cast<f32>(y - y0);
  f32 acc = 0.0f;
  for (i32 j = -1; j <= 2; ++j) {
    f32 wy = catmull_rom(static_cast<f32>(j) - fy);
    if (wy == 0.0f) continue;
    f32 row_acc = 0.0f;
    for (i32 i = -1; i <= 2; ++i) {
      f32 wx = catmull_rom(static_cast<f32>(i) - fx);
      row_acc += wx * in.at_clamped(x0 + i, y0 + j);
    }
    acc += wy * row_acc;
  }
  return acc;
}

namespace {
/// The four Catmull-Rom taps of one output coordinate along one axis: the
/// clamped source indices and their weights, in bicubic_sample's order.
struct CubicTaps {
  std::array<i32, 4> index;
  std::array<f32, 4> weight;
};

CubicTaps cubic_taps(f64 s, i32 extent) {
  const i32 s0 = static_cast<i32>(std::floor(s));
  const f32 f = static_cast<f32>(s - s0);
  CubicTaps taps{};
  for (i32 k = 0; k < 4; ++k) {
    taps.index[k] = std::clamp(s0 + k - 1, 0, extent - 1);
    taps.weight[k] = catmull_rom(static_cast<f32>(k - 1) - f);
  }
  return taps;
}

/// Output columns per tile of the separable resampler.  The tile's taps, its
/// four-row ring and its output row (13 KiB) live on the stack and fit in L1,
/// whatever the output width.
constexpr usize kResampleTile = 256;

/// Separable Catmull-Rom resample of the rectangle `src` of `in` onto an
/// out_w x out_h grid, producing output rows [rows.lo, rows.hi) and handing
/// each finished row segment to `sink(y, x0, segment)`.
///
/// Per tile of output columns, a horizontal pass filters each source row the
/// band needs once, into a ring of four rows (the taps of one output row are
/// at most four consecutive source rows, so they occupy distinct slots, and
/// rows only move forward); a vertical pass then blends the ring.  Both
/// passes keep bicubic_sample's summation order — 0.0f starts, taps in index
/// order, rows with zero weight skipped — so every output value is
/// bit-identical to it.
template <typename Sink>
void resample_separable(const ImageF32& in, i32 out_w, i32 out_h, Rect src,
                        IndexRange rows, Sink&& sink) {
  assert(out_w > 0 && out_h > 0 && !src.empty() && !in.empty());
  assert(rows.lo >= 0 && rows.hi <= out_h);
  if (rows.empty()) return;
  const f64 sx = static_cast<f64>(src.w) / static_cast<f64>(out_w);
  const f64 sy = static_cast<f64>(src.h) / static_cast<f64>(out_h);
  std::array<CubicTaps, kResampleTile> cols{};
  std::array<f32, 4 * kResampleTile> ring{};
  std::array<f32, kResampleTile> line{};
  for (i32 x0 = 0; x0 < out_w; x0 += static_cast<i32>(kResampleTile)) {
    const usize w = std::min(kResampleTile, static_cast<usize>(out_w - x0));
    for (usize x = 0; x < w; ++x) {
      const i32 ox = x0 + static_cast<i32>(x);
      cols[x] = cubic_taps(src.x + (static_cast<f64>(ox) + 0.5) * sx - 0.5,
                           in.width());
    }
    std::array<i32, 4> ring_row = {-1, -1, -1, -1};
    for (i32 y = rows.lo; y < rows.hi; ++y) {
      const CubicTaps ty = cubic_taps(
          src.y + (static_cast<f64>(y) + 0.5) * sy - 0.5, in.height());
      std::fill_n(line.begin(), w, 0.0f);
      for (usize k = 0; k < 4; ++k) {
        if (ty.weight[k] == 0.0f) continue;
        const i32 r = ty.index[k];
        const usize slot = static_cast<usize>(r % 4);
        f32* h = ring.data() + slot * kResampleTile;
        if (ring_row[slot] != r) {
          const f32* src_row = in.row(r);
          for (usize x = 0; x < w; ++x) {
            const CubicTaps& tx = cols[x];
            f32 acc = 0.0f;
            for (usize i = 0; i < 4; ++i) {
              acc += tx.weight[i] * src_row[tx.index[i]];
            }
            h[x] = acc;
          }
          ring_row[slot] = r;
        }
        const f32 wy = ty.weight[k];
        for (usize x = 0; x < w; ++x) line[x] += wy * h[x];
      }
      sink(y, x0, std::span<const f32>(line.data(), w));
    }
  }
}
}  // namespace

ImageF32 resample_bicubic(const ImageF32& in, i32 out_w, i32 out_h, Rect src,
                          WorkReport* wr) {
  ImageF32 out(out_w, out_h);
  resample_bicubic_rows(in, out, src, IndexRange{0, out_h}, wr);
  return out;
}

void resample_bicubic_rows(const ImageF32& in, ImageF32& out, Rect src,
                           IndexRange rows, WorkReport* wr) {
  resample_separable(in, out.width(), out.height(), src, rows,
                     [&out](i32 y, i32 x0, std::span<const f32> seg) {
                       std::copy(seg.begin(), seg.end(), out.row(y) + x0);
                     });
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(out.width()) *
                 static_cast<u64>(rows.length() < 0 ? 0 : rows.length());
    wr->pixel_ops += pixels * 40;  // 16 taps, ~2.5 ops each
    wr->bytes_read += pixels * 16 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
}

void resample_bicubic_rows_u16(const ImageF32& in, ImageU16& out, Rect src,
                               IndexRange rows) {
  resample_separable(
      in, out.width(), out.height(), src, rows,
      [&out](i32 y, i32 x0, std::span<const f32> seg) {
        u16* dst = out.row(y) + x0;
        for (usize x = 0; x < seg.size(); ++x) {
          dst[x] = static_cast<u16>(std::clamp(seg[x], 0.0f, 65535.0f) + 0.5f);
        }
      });
}

namespace {
/// Coordinates of translate_bilinear: out(x, y) = in(x + dx, y + dy).
class TranslateCoords {
 public:
  TranslateCoords(f64 dx, f64 dy) : dx_(dx), dy_(dy) {}
  void columns(i32 x0, usize /*n*/) { x0_ = x0; }
  void row(i32 y, usize n, BilinearCoords& c) const {
    const f64 sy = static_cast<f64>(y) + dy_;
    for (usize i = 0; i < n; ++i) {
      c.x[i] = static_cast<f64>(x0_ + static_cast<i32>(i)) + dx_;
      c.y[i] = sy;
    }
  }

 private:
  f64 dx_;
  f64 dy_;
  i32 x0_ = 0;
};

/// Whole-image warp of `in` through `coords`, copied into a new image.
template <typename Coords>
ImageF32 warp_image(const ImageF32& in, Coords& coords) {
  ImageF32 out(in.width(), in.height());
  bilinear_rows(in, in.width(), IndexRange{0, in.height()}, coords,
                [&out](i32 y, i32 x0, std::span<const f32> seg) {
                  std::copy(seg.begin(), seg.end(), out.row(y) + x0);
                });
  return out;
}
}  // namespace

ImageF32 warp_rigid(const ImageF32& in, f64 dx, f64 dy, f64 angle,
                    Point2f center, WorkReport* wr) {
  if (angle == 0.0) return translate_bilinear(in, dx, dy, wr);
  // Inverse of "rotate about center, then translate by d":
  // source = center + R(-angle) * (p - center - d).
  RigidCoords coords(center, center, Point2f{dx, dy}, angle);
  ImageF32 out = warp_image(in, coords);
  if (wr != nullptr) {
    u64 pixels = in.size();
    wr->pixel_ops += pixels * 22;  // rotation math on top of the gather
    wr->bytes_read += pixels * 4 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
  return out;
}

ImageF32 translate_bilinear(const ImageF32& in, f64 dx, f64 dy,
                            WorkReport* wr) {
  TranslateCoords coords(dx, dy);
  ImageF32 out = warp_image(in, coords);
  if (wr != nullptr) {
    u64 pixels = in.size();
    // Bilinear gather is memory-bound: account the 4-tap fetch + blend at an
    // effective 18 ops/pixel.
    wr->pixel_ops += pixels * 18;
    wr->bytes_read += pixels * 4 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
  return out;
}

}  // namespace tc::img
