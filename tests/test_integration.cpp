// Cross-module integration tests: the tuner driving the GEMM kernel
// end-to-end, generator-produced specs fuzzing the PARLOOPER executor, and
// cache behaviour across repeated construction.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "common/timer.hpp"
#include "kernels/gemm_kernel.hpp"
#include "test_utils.hpp"
#include "tuner/tuner.hpp"

namespace plt {
namespace {

using plt::test::expect_allclose;
using plt::test::naive_gemm;
using plt::test::random_vec;

// ---------- generator-driven executor fuzzing ----------

class GeneratedSpecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedSpecFuzz, EveryGeneratedSpecCoversIterationSpaceOnce) {
  perfmodel::GemmModelProblem p;
  p.M = p.N = p.K = 192;  // trips of 6 => rich prime factorization {2, 3}
  p.bm = p.bn = p.bk = 32;
  tuner::SpecGenOptions opts;
  opts.max_candidates = 12;
  opts.include_serial = true;
  opts.seed = GetParam();
  const auto cands = tuner::generate_gemm_candidates(p, opts);
  ASSERT_FALSE(cands.empty());

  const std::int64_t total = 6 * 6 * 6;
  for (const auto& c : cands) {
    std::vector<parlooper::LoopSpecs> loops = {
        parlooper::LoopSpecs{0, 6, 1, c.k_blocking},
        parlooper::LoopSpecs{0, 6, 1, c.m_blocking},
        parlooper::LoopSpecs{0, 6, 1, c.n_blocking}};
    parlooper::LoopNest nest(loops, c.spec);
    std::mutex mu;
    std::set<std::int64_t> seen;
    std::int64_t count = 0;
    nest([&](const std::int64_t* ind) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(ind[0] * 36 + ind[1] * 6 + ind[2]);
      ++count;
    });
    EXPECT_EQ(count, total) << c.spec;
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), total) << c.spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSpecFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------- tuner end-to-end: best spec actually runs fastest-or-close ----------

TEST(Integration, TunerBestSpecIsReproducible) {
  kernels::GemmConfig base;
  base.M = base.N = base.K = 128;
  base.bm = base.bn = base.bk = 32;
  perfmodel::GemmModelProblem p;
  p.M = p.N = p.K = 128;
  p.bm = p.bn = p.bk = 32;
  tuner::SpecGenOptions gopts;
  gopts.max_candidates = 6;
  const auto cands = tuner::generate_gemm_candidates(p, gopts);
  tuner::TuneOptions topts;
  topts.warmup = 1;
  topts.iters = 2;
  tuner::GemmTuner tuner(base, topts);
  const auto results = tuner.run(cands);

  // Every candidate was timed and the ranking is best first.
  ASSERT_EQ(results.size(), cands.size());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].gflops, results[i].gflops) << i;
  }
  EXPECT_GT(results.back().gflops, 0.0);

  // The winning candidate rebuilt standalone computes the product...
  kernels::GemmConfig best = base;
  best.loop_spec = results.front().candidate.spec;
  best.k_blocking = results.front().candidate.k_blocking;
  best.m_blocking = results.front().candidate.m_blocking;
  best.n_blocking = results.front().candidate.n_blocking;
  kernels::GemmKernel kernel(best);
  const auto a_flat = random_vec(static_cast<std::size_t>(best.M * best.K), 5);
  const auto b_flat = random_vec(static_cast<std::size_t>(best.K * best.N), 6);
  AlignedBuffer<std::uint8_t> a(kernel.a_elems() * 4), b(kernel.b_elems() * 4),
      c(kernel.c_elems() * 4);
  kernel.pack_a(a_flat.data(), a.data());
  kernel.pack_b(b_flat.data(), b.data());
  kernel.run(a.data(), b.data(), c.data());
  std::vector<float> got(kernel.c_elems());
  kernel.unpack_c(c.data(), got.data());
  std::vector<float> want(got.size(), 0.0f);
  naive_gemm(a_flat.data(), b_flat.data(), want.data(), best.M, best.N,
             best.K, best.M, best.K, best.M, 0.0f);
  expect_allclose(got.data(), want.data(), want.size(), 1e-4f,
                  "tuned winner vs naive");

  // ...and re-running it reproduces a comparable rate (within 2x —
  // generous, CI timing is noisy).
  const double s = time_best_seconds(
      [&] { kernel.run(a.data(), b.data(), c.data()); }, 1, 3);
  const double gf = gflops(kernel.flops(), s);
  EXPECT_GT(gf, results.front().gflops * 0.5);
}

// ---------- cache behaviour across modules ----------

TEST(Integration, RepeatedKernelConstructionHitsPlanCache) {
  kernels::GemmConfig cfg;
  cfg.M = cfg.N = cfg.K = 64;
  cfg.bm = cfg.bn = cfg.bk = 32;
  cfg.loop_spec = "CBa" /* unique-ish to this test */;
  const auto before = parlooper::plan_cache_stats();
  kernels::GemmKernel k1(cfg);
  kernels::GemmKernel k2(cfg);
  kernels::GemmKernel k3(cfg);
  const auto after = parlooper::plan_cache_stats();
  EXPECT_GE(after.hits - before.hits, 2u);
}

TEST(Integration, DistinctSpecStringsGetDistinctPlans) {
  std::vector<parlooper::LoopSpecs> loops = {parlooper::LoopSpecs{0, 4, 1},
                                             parlooper::LoopSpecs{0, 4, 1}};
  parlooper::LoopNest n1(loops, "ab");
  parlooper::LoopNest n2(loops, "ba");
  EXPECT_NE(&n1.plan(), &n2.plan());
  EXPECT_EQ(n1.plan().total_iterations(), n2.plan().total_iterations());
}

}  // namespace
}  // namespace plt
