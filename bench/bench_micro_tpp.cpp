// Google-benchmark microbenchmarks for the TPP backend itself: BRGEMM at
// the microkernel tile sizes the kernels use, elementwise TPPs, softmax and
// layernorm equations, and the VNNI pack transform.
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/equations.hpp"
#include "tpp/transforms.hpp"
#include "tpp/unary.hpp"

namespace {

using namespace plt;

void BM_BrgemmF32(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const std::int64_t count = 8;
  std::vector<float> a(static_cast<std::size_t>(b * b * count));
  std::vector<float> bb(a.size());
  std::vector<float> c(static_cast<std::size_t>(b * b));
  Xoshiro256 rng(1);
  fill_uniform(a.data(), a.size(), rng, -0.5f, 0.5f);
  fill_uniform(bb.data(), bb.size(), rng, -0.5f, 0.5f);
  tpp::BrgemmTPP brgemm(b, b, b, b * b, b * b, 0.0f);
  for (auto _ : state) {
    brgemm(a.data(), bb.data(), c.data(), count);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * b * b * count);
}
BENCHMARK(BM_BrgemmF32)->Arg(16)->Arg(32)->Arg(64);

void BM_BrgemmBf16Vnni(benchmark::State& state) {
  const std::int64_t b = state.range(0);
  const std::int64_t count = 8;
  std::vector<bf16> flat(static_cast<std::size_t>(b * b));
  Xoshiro256 rng(2);
  for (auto& v : flat) v = bf16::from_f32(rng.uniform(-0.5f, 0.5f));
  const std::int64_t blk = tpp::vnni2_elems(b, b);
  std::vector<bf16> a(static_cast<std::size_t>(blk * count));
  for (std::int64_t i = 0; i < count; ++i)
    tpp::vnni2_pack(flat.data(), a.data() + i * blk, b, b, b);
  std::vector<bf16> bb(static_cast<std::size_t>(b * b * count));
  for (auto& v : bb) v = bf16::from_f32(rng.uniform(-0.5f, 0.5f));
  std::vector<float> c(static_cast<std::size_t>(b * b));
  tpp::BrgemmTPP brgemm(b, b, b, blk, b * b, 0.0f, DType::BF16, DType::BF16,
                        DType::F32, tpp::ALayout::kVnni2);
  for (auto _ : state) {
    brgemm(a.data(), bb.data(), c.data(), count);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * b * b * count);
}
BENCHMARK(BM_BrgemmBf16Vnni)->Arg(16)->Arg(32)->Arg(64);

void BM_UnaryGelu(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<float> in(static_cast<std::size_t>(n * n)), out(in.size());
  Xoshiro256 rng(3);
  fill_uniform(in.data(), in.size(), rng, -2.0f, 2.0f);
  tpp::UnaryTPP gelu(tpp::UnaryKind::kGelu, n, n);
  for (auto _ : state) {
    gelu(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_UnaryGelu)->Arg(32)->Arg(128);

void BM_SoftmaxRows(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<float> in(static_cast<std::size_t>(n * n)), out(in.size());
  Xoshiro256 rng(4);
  fill_uniform(in.data(), in.size(), rng, -4.0f, 4.0f);
  for (auto _ : state) {
    tpp::softmax_rows(in.data(), out.data(), n, n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(256);

void BM_LayerNormFwd(benchmark::State& state) {
  const std::int64_t rows = 128, cols = state.range(0);
  std::vector<float> in(static_cast<std::size_t>(rows * cols)), out(in.size());
  std::vector<float> gamma(static_cast<std::size_t>(cols), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(cols), 0.0f);
  std::vector<float> mean(static_cast<std::size_t>(rows)), var(mean.size());
  Xoshiro256 rng(5);
  fill_uniform(in.data(), in.size(), rng, -1.0f, 1.0f);
  tpp::LayerNormFwd ln{rows, cols, 1e-5f};
  for (auto _ : state) {
    ln(in.data(), gamma.data(), beta.data(), mean.data(), var.data(),
       out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormFwd)->Arg(256)->Arg(1024);

void BM_Vnni2Pack(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<bf16> in(static_cast<std::size_t>(n * n)), out(
      static_cast<std::size_t>(tpp::vnni2_elems(n, n)));
  for (auto _ : state) {
    tpp::vnni2_pack(in.data(), out.data(), n, n, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Vnni2Pack)->Arg(32)->Arg(128);

// PARLOOPER dispatch overhead per invocation, per execution runtime. The
// runtime is flipped in-process so one run records the pool-vs-omp ratio.
void BM_NestDispatch(benchmark::State& state, plt::Runtime rt) {
  const plt::Runtime saved = plt::runtime();
  plt::set_runtime(rt);
  std::vector<parlooper::LoopSpecs> loops = {parlooper::LoopSpecs{0, 4, 1, {}},
                                             parlooper::LoopSpecs{0, 4, 1, {}}};
  parlooper::LoopNest nest(loops, "Ab");
  std::int64_t sink = 0;
  const parlooper::BodyFn body = [&](const std::int64_t* ind) {
    sink += ind[0] + ind[1];
  };
  for (auto _ : state) {
    nest(body);
    benchmark::DoNotOptimize(sink);
  }
  plt::set_runtime(saved);
}
BENCHMARK_CAPTURE(BM_NestDispatch, serial, plt::Runtime::kSerial);
#if defined(PLT_HAVE_OPENMP)
// Without OpenMP this row would silently measure the serial fallback.
BENCHMARK_CAPTURE(BM_NestDispatch, omp, plt::Runtime::kOpenMP);
#endif
BENCHMARK_CAPTURE(BM_NestDispatch, pool, plt::Runtime::kPool);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // BENCH_micro_tpp.json: the per-runtime dispatch overhead rows tracked
  // across PRs (the acceptance metric for the persistent-pool runtime).
  plt::bench::JsonReporter json("micro_tpp");
  plt::bench::report_dispatch_overhead(json, 20000);
  return 0;
}
