#include <gtest/gtest.h>

#include "perfmodel/cache_model.hpp"
#include "perfmodel/contraction_model.hpp"

namespace plt::perfmodel {
namespace {

std::vector<CacheLevelConfig> tiny_caches() {
  // L1: 2 slices of 100B; L2: 8 slices.
  return {{200, 10.0}, {800, 5.0}};
}

TEST(LruCacheSim, ColdMissThenHit) {
  LruCacheSim sim(tiny_caches());
  EXPECT_EQ(sim.access(1, 100), 2);  // memory
  EXPECT_EQ(sim.access(1, 100), 0);  // L1 hit
}

TEST(LruCacheSim, LruEviction) {
  LruCacheSim sim(tiny_caches());
  sim.access(1, 100);
  sim.access(2, 100);
  sim.access(3, 100);  // evicts 1 from L1 (capacity 200)
  EXPECT_EQ(sim.access(2, 100), 0);
  EXPECT_EQ(sim.access(1, 100), 1);  // still in L2
}

TEST(LruCacheSim, AccessRefreshesRecency) {
  LruCacheSim sim(tiny_caches());
  sim.access(1, 100);
  sim.access(2, 100);
  sim.access(1, 100);  // 1 becomes MRU
  sim.access(3, 100);  // evicts 2, not 1
  EXPECT_EQ(sim.access(1, 100), 0);
  EXPECT_EQ(sim.access(2, 100), 1);
}

TEST(LruCacheSim, OversizedSliceBypassesLevel) {
  LruCacheSim sim(tiny_caches());
  sim.access(1, 100);
  sim.access(9, 500);                // fits only in L2
  EXPECT_EQ(sim.access(1, 100), 0);  // L1 content untouched
  EXPECT_EQ(sim.access(9, 500), 1);
}

TEST(LruCacheSim, HitCountersTrackLevels) {
  LruCacheSim sim(tiny_caches());
  sim.access(1, 100);
  sim.access(1, 100);
  sim.access(1, 100);
  EXPECT_EQ(sim.hits(2), 1u);  // one memory access
  EXPECT_EQ(sim.hits(0), 2u);  // two L1 hits
}

TEST(PlatformModel, PresetsAreOrderedSanely) {
  const auto spr = PlatformModel::spr_like();
  const auto zen = PlatformModel::zen4_like();
  EXPECT_GT(spr.bf16_flops_per_cycle, spr.fp32_flops_per_cycle);
  EXPECT_GT(spr.bf16_flops_per_cycle, zen.bf16_flops_per_cycle);
  EXPECT_EQ(spr.caches.size(), 3u);
}

// ---------- contraction model properties ----------

GemmModelProblem square(std::int64_t n) {
  GemmModelProblem p;
  p.M = p.N = p.K = n;
  p.bm = p.bn = p.bk = 32;
  p.k_step = 1;  // one K block per call: "abc" streams C on every K step
  return p;
}

TEST(ContractionModel, MoreThreadsNeverSlower) {
  const auto p = square(512);
  const auto plat = PlatformModel::spr_like();
  const double c1 = model_gemm_spec(p, "aBC", plat, 1).cycles;
  const double c4 = model_gemm_spec(p, "aBC", plat, 4).cycles;
  const double c16 = model_gemm_spec(p, "aBC", plat, 16).cycles;
  EXPECT_LE(c4, c1);
  EXPECT_LE(c16, c4);
}

TEST(ContractionModel, SerialScheduleScoresWorseThanParallel) {
  const auto p = square(512);
  const auto plat = PlatformModel::spr_like();
  const double serial = model_gemm_spec(p, "abc", plat, 8).flops_per_cycle;
  const double parallel = model_gemm_spec(p, "aBC", plat, 8).flops_per_cycle;
  EXPECT_GT(parallel, serial);
}

TEST(ContractionModel, CacheBlockingBeatsNoReuseOrder) {
  // In a high-compute-peak regime (bf16 on the SPR-like platform) the model
  // is bandwidth-sensitive: an M/N-tiled order that keeps C tiles cache
  // resident must outscore the K-outer order that streams C from memory on
  // every K step. This is exactly the locality signal Fig. 6 relies on.
  auto p = square(1024);
  p.bf16 = true;
  p.m_blocking = {8};
  p.n_blocking = {8};
  const auto plat = PlatformModel::spr_like();
  const double blocked = model_gemm_spec(p, "bcabc", plat, 1).flops_per_cycle;
  GemmModelProblem p2 = square(1024);
  p2.bf16 = true;
  const double streaming = model_gemm_spec(p2, "abc", plat, 1).flops_per_cycle;
  EXPECT_GT(blocked, streaming);
}

TEST(ContractionModel, Bf16RaisesComputeCeiling) {
  auto p = square(256);
  const auto plat = PlatformModel::spr_like();
  const double f32 = model_gemm_spec(p, "aBC", plat, 4).flops_per_cycle;
  p.bf16 = true;
  const double b16 = model_gemm_spec(p, "aBC", plat, 4).flops_per_cycle;
  EXPECT_GT(b16, f32);
}

TEST(ContractionModel, BusiestThreadCallsAccountAllWork) {
  const auto p = square(256);  // 8x8x8 blocks
  const auto plat = PlatformModel::spr_like();
  const auto pred = predict_contraction(
      [] {
        std::vector<parlooper::LoopSpecs> loops = {
            parlooper::LoopSpecs{0, 8, 1}, parlooper::LoopSpecs{0, 8, 1},
            parlooper::LoopSpecs{0, 8, 1}};
        return parlooper::LoopNestPlan(loops, "abc");
      }(),
      ContractionDesc{
          1000.0, false,
          [](const std::int64_t*) { return SliceAccess{1, 64}; },
          [](const std::int64_t*) { return SliceAccess{2, 64}; },
          [](const std::int64_t*) { return SliceAccess{3, 64}; }},
      plat, 1);
  EXPECT_EQ(pred.busiest_thread_calls, 8 * 8 * 8);
  EXPECT_GT(pred.cycles, 0.0);
}

}  // namespace
}  // namespace plt::perfmodel
