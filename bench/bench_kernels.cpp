// Micro-benchmarks of the imaging kernels (google-benchmark).  Not a paper
// figure; used to track the substrate's host performance.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "imaging/pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "app/stentboost.hpp"

using namespace tc;

namespace {

img::ImageF32 random_image(i32 size, u64 seed) {
  img::ImageF32 im(size, size);
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] = static_cast<f32>(rng.uniform(0.0, 40000.0));
  }
  return im;
}

void BM_GaussianBlur(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 1);
  for (auto _ : state) {
    img::ImageF32 out = img::gaussian_blur(im, 2.0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_GaussianBlur)->Arg(128)->Arg(256)->Arg(512);

void BM_RidgeDetect(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 2);
  img::RidgeParams params;
  for (auto _ : state) {
    img::RidgeResult r = img::ridge_detect(im, im.full_rect(), params);
    benchmark::DoNotOptimize(r.dominant_pixels);
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_RidgeDetect)->Arg(128)->Arg(256);

void BM_ExtractMarkers(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 3);
  img::MarkerParams params;
  for (auto _ : state) {
    img::MarkerResult r =
        img::extract_markers(im, im.full_rect(), params, nullptr);
    benchmark::DoNotOptimize(r.candidates.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_ExtractMarkers)->Arg(256);

void BM_TranslateBilinear(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 4);
  for (auto _ : state) {
    img::ImageF32 out = img::translate_bilinear(im, 0.7, -1.3);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_TranslateBilinear)->Arg(256);

// ZOOM at the workloads' shapes: (source ROI side, output side).  170 -> 512
// is pipeline_512's ROI zoom; 256 -> 256 the full-frame 256² zoom; 256 -> 128
// the same at the half-zoom QoS level.
void BM_Zoom(benchmark::State& state) {
  const i32 out = static_cast<i32>(state.range(1));
  img::ImageF32 roi = random_image(static_cast<i32>(state.range(0)), 5);
  img::ZoomParams params;
  params.output_width = out;
  params.output_height = out;
  for (auto _ : state) {
    img::ZoomResult r = img::zoom(roi, params);
    benchmark::DoNotOptimize(r.output.data());
  }
  state.SetItemsProcessed(state.iterations() * out * out);
}
BENCHMARK(BM_Zoom)->Args({170, 512})->Args({256, 256})->Args({256, 128});

// f32 bicubic resample of a centred source rectangle of a 256² image:
// (rectangle side, output side).
void BM_ResampleBicubic(benchmark::State& state) {
  const i32 side = static_cast<i32>(state.range(0));
  const i32 out = static_cast<i32>(state.range(1));
  img::ImageF32 im = random_image(256, 7);
  const Rect src{(256 - side) / 2, (256 - side) / 2, side, side};
  for (auto _ : state) {
    img::ImageF32 r = img::resample_bicubic(im, out, out, src);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * out * out);
}
BENCHMARK(BM_ResampleBicubic)->Args({170, 512})->Args({256, 128});

// ENH at the workloads' frame sizes: one serial steady-state integration
// step, in place, with the current couple rotated 8 degrees against the
// reference.
void BM_Enhance(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  const img::ImageF32 frame = random_image(size, 8);
  img::ImageF32 acc = random_image(size, 9);
  const f64 c = 0.5 * size;
  const f64 arm = 0.09 * size;
  const f64 phi = 8.0 * 3.14159265358979323846 / 180.0;
  const img::Couple ref{Point2f{c - arm, c}, Point2f{c + arm, c}, 1.0};
  const img::Couple cur{Point2f{c + 3.0 - arm * std::cos(phi),
                                c - 2.0 - arm * std::sin(phi)},
                        Point2f{c + 3.0 + arm * std::cos(phi),
                                c - 2.0 + arm * std::sin(phi)},
                        1.0};
  const img::EnhanceParams params;
  for (auto _ : state) {
    img::enhance_rows(frame, cur, ref, params, /*restart=*/false, acc,
                      IndexRange{0, size});
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_Enhance)->Arg(512)->Arg(256);

void BM_SyntheticRender(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::SequenceParams p;
  p.width = size;
  p.height = size;
  p.frames = 1000;
  img::AngioSequence seq(p);
  i32 t = 0;
  for (auto _ : state) {
    img::ImageU16 frame = seq.render(t++ % 1000);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_SyntheticRender)->Arg(256);

void BM_FullPipelineFrame(benchmark::State& state) {
  app::StentBoostConfig c = app::StentBoostConfig::make(256, 256, 100000, 6);
  c.sequence.contrast_in_frame = 0;
  app::StentBoostApp app(c);
  i32 t = 0;
  for (auto _ : state) {
    graph::FrameRecord r = app.process_frame(t++);
    benchmark::DoNotOptimize(r.latency_ms);
  }
}
BENCHMARK(BM_FullPipelineFrame);

}  // namespace

BENCHMARK_MAIN();
