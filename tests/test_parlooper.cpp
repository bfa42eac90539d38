#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/status.hpp"
#include "common/threading.hpp"
#include "parlooper/team.hpp"
#include "parlooper/threaded_loop.hpp"
#include "test_utils.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"
#include "tpp/unary.hpp"

namespace plt::parlooper {
namespace {

using plt::test::expect_allclose;
using plt::test::naive_gemm;
using plt::test::random_vec;

// Records every (a, b, c) logical-index triple the nest produced. Each
// visit must occur exactly once regardless of order/blocking/parallelism.
struct CoverageRecorder {
  std::mutex mu;
  std::map<std::vector<std::int64_t>, int> visits;

  BodyFn body(int nloops) {
    return [this, nloops](const std::int64_t* ind) {
      std::vector<std::int64_t> v(ind, ind + nloops);
      std::lock_guard<std::mutex> lock(mu);
      ++visits[v];
    };
  }
};

std::set<std::vector<std::int64_t>> expected_triples(
    const std::vector<LoopSpecs>& loops) {
  std::set<std::vector<std::int64_t>> out;
  // Innermost-occurrence values are exactly the step-grid of each loop.
  std::vector<std::vector<std::int64_t>> axes;
  for (const auto& l : loops) {
    std::vector<std::int64_t> vals;
    for (std::int64_t v = l.start; v < l.end; v += l.step) vals.push_back(v);
    axes.push_back(vals);
  }
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    std::vector<std::int64_t> t;
    for (std::size_t i = 0; i < axes.size(); ++i) t.push_back(axes[i][idx[i]]);
    out.insert(t);
    std::size_t d = axes.size();
    while (d > 0) {
      --d;
      if (++idx[d] < axes[d].size()) break;
      idx[d] = 0;
      if (d == 0) return out;
    }
  }
}

class SpecSweepP : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecSweepP, EveryIterationVisitedExactlyOnce) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 8, 1, {4, 2}},
                                  LoopSpecs{0, 16, 2, {8, 4}},
                                  LoopSpecs{0, 12, 3, {6}}};
  LoopNest nest(loops, GetParam());
  CoverageRecorder rec;
  nest(rec.body(3));
  const auto want = expected_triples(loops);
  EXPECT_EQ(rec.visits.size(), want.size()) << GetParam();
  for (const auto& [triple, count] : rec.visits) {
    EXPECT_EQ(count, 1) << GetParam();
    EXPECT_TRUE(want.count(triple)) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SpecSweepP,
    ::testing::Values("abc", "cba", "acb", "aBc", "aBC", "ABC", "bcaBCb",
                      "bbac" /* unusual but legal */, "aabbcc", "bcabcb",
                      "aBC @ schedule(dynamic,1)",
                      "aBC @ schedule(dynamic,4)",
                      "a|Bc", "bC{R:2}aB{C:2}cb", "bC{R:3}acb",
                      "B{R:2}C{C:2}a", "cabCBa"));

TEST(ThreadedLoop, PaperListing1GemmProducesCorrectResult) {
  // The GEMM of Listing 1: blocked tensors, zero_tpp + brgemm_tpp body.
  const std::int64_t M = 32, N = 24, K = 16;
  const std::int64_t bm = 8, bn = 6, bk = 4;
  const std::int64_t Mb = M / bm, Nb = N / bn, Kb = K / bk;

  auto a_flat = random_vec(static_cast<std::size_t>(M * K), 1);
  auto b_flat = random_vec(static_cast<std::size_t>(K * N), 2);

  // A[Mb][Kb][bk][bm], B[Nb][Kb][bn][bk], C[Nb][Mb][bn][bm].
  std::vector<float> A(a_flat.size()), B(b_flat.size());
  std::vector<float> C(static_cast<std::size_t>(M * N), -1.0f);
  tpp::block_a_matrix(a_flat.data(), A.data(), M, K, bm, bk);
  // B blocked: B[n-block][k-block][bn][bk] with bk fastest == block of B^T.
  for (std::int64_t in = 0; in < Nb; ++in)
    for (std::int64_t ik = 0; ik < Kb; ++ik)
      for (std::int64_t nn = 0; nn < bn; ++nn)
        for (std::int64_t kk = 0; kk < bk; ++kk)
          B[static_cast<std::size_t>((((in * Kb + ik) * bn + nn) * bk) + kk)] =
              b_flat[static_cast<std::size_t>((ik * bk + kk) + (in * bn + nn) * K)];

  tpp::UnaryTPP zero_tpp(tpp::UnaryKind::kZero, bm, bn);
  tpp::BrgemmTPP brgemm_tpp(bm, bn, bk, bk * bm, bn * bk, 1.0f);

  for (const char* spec : {"abc", "bcaBCb", "Cba", "acBb" /* b blocked? no */}) {
    // NOTE: specs must keep the K loop ("a") sequential per C block.
    std::vector<LoopSpecs> loops = {
        LoopSpecs{0, Kb, 1, {}}, LoopSpecs{0, Mb, 1, {2}}, LoopSpecs{0, Nb, 1, {2}}};
    // "bcaBCb" blocks b twice — needs two sizes.
    if (std::string(spec) == "bcaBCb") {
      loops[1].block_steps = {2, 2};
      loops[2].block_steps = {2};
    }
    std::fill(C.begin(), C.end(), -1.0f);
    LoopNest gemm_loop(loops, spec);
    gemm_loop([&](const std::int64_t* ind) {
      const std::int64_t ik = ind[0], im = ind[1], in = ind[2];
      float* c_blk = C.data() + ((in * Mb + im) * bn * bm);
      if (ik == 0) zero_tpp(nullptr, c_blk);
      brgemm_tpp(A.data() + ((im * Kb + ik) * bk * bm),
                 B.data() + ((in * Kb + ik) * bn * bk), c_blk, 1);
    });

    // Reference.
    std::vector<float> want(static_cast<std::size_t>(M * N), 0.0f);
    naive_gemm(a_flat.data(), b_flat.data(), want.data(), M, N, K, M, K, M, 0.0f);
    // Un-block C[Nb][Mb][bn][bm] -> col-major M x N.
    std::vector<float> got(want.size());
    for (std::int64_t in = 0; in < Nb; ++in)
      for (std::int64_t im = 0; im < Mb; ++im)
        for (std::int64_t nn = 0; nn < bn; ++nn)
          for (std::int64_t mm = 0; mm < bm; ++mm)
            got[static_cast<std::size_t>((im * bm + mm) + (in * bn + nn) * M)] =
                C[static_cast<std::size_t>((((in * Mb + im) * bn + nn) * bm) + mm)];
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, spec);
  }
}

TEST(ThreadedLoop, InitAndTermRunOncePerParticipant) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 4, 1, {}}};
  std::atomic<int> inits{0}, terms{0}, bodies{0};
  LoopNest nest(loops, "A");
  nest([&](const std::int64_t*) { ++bodies; }, [&] { ++inits; },
       [&] { ++terms; });
  EXPECT_EQ(bodies.load(), 4);
  EXPECT_EQ(inits.load(), terms.load());
  EXPECT_GE(inits.load(), 1);
}

TEST(ThreadedLoop, SerialSpecRunsInitOnce) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 4, 1, {}}};
  std::atomic<int> inits{0}, bodies{0};
  LoopNest nest(loops, "a");
  nest([&](const std::int64_t*) { ++bodies; }, [&] { ++inits; });
  EXPECT_EQ(bodies.load(), 4);
  EXPECT_EQ(inits.load(), 1);
}

TEST(ThreadedLoop, NonZeroStartsPropagate) {
  std::vector<LoopSpecs> loops = {LoopSpecs{4, 12, 2, {}},
                                  LoopSpecs{-6, 0, 3, {}}};
  CoverageRecorder rec;
  LoopNest nest(loops, "ab");
  nest(rec.body(2));
  EXPECT_EQ(rec.visits.size(), 4u * 2u);
  EXPECT_TRUE(rec.visits.count({4, -6}));
  EXPECT_TRUE(rec.visits.count({10, -3}));
}

TEST(ThreadedLoop, PlanCacheHitsOnRepeatedConstruction) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 64, 1, {8}}};
  const auto before = plan_cache_stats();
  LoopNest n1(loops, "aa");
  LoopNest n2(loops, "aa");
  LoopNest n3(loops, "aa");
  const auto after = plan_cache_stats();
  EXPECT_GE(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 1u);
}

TEST(ThreadedLoop, TemplateSugarMatchesPaperSignature) {
  ThreadedLoop<2> loop({LoopSpecs{0, 4, 1, {}}, LoopSpecs{0, 6, 2, {}}}, "ab");
  int count = 0;
  loop([&](const std::int64_t*) { ++count; });
  EXPECT_EQ(count, 4 * 3);
}

TEST(ThreadedLoop, InvalidSpecThrowsAtConstruction) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 4, 1, {}}};
  EXPECT_THROW(LoopNest(loops, "ab"), std::invalid_argument);
  EXPECT_THROW(LoopNest(loops, "aa"),
               std::invalid_argument);  // no blocking size declared
}

TEST(ThreadedLoop, GridWiderThanTeamStillCoversAllIterations) {
  // A 16-way grid on a small team: cells are distributed round-robin, so
  // every chunk (and thus every iteration) still executes exactly once.
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 32, 1, {}},
                                  LoopSpecs{0, 8, 1, {}}};
  CoverageRecorder rec;
  LoopNest nest(loops, "A{R:16}B{C:2}");
  nest(rec.body(2));
  EXPECT_EQ(rec.visits.size(), 32u * 8u);
  for (const auto& [triple, count] : rec.visits) EXPECT_EQ(count, 1);
}

TEST(ThreadedLoop, BarrierWithExplicitGridRejected) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 8, 1, {}},
                                  LoopSpecs{0, 8, 1, {}}};
  EXPECT_THROW(LoopNest(loops, "a|B{R:2}"), std::invalid_argument);
}

// --- collective invocation ---------------------------------------------------

std::vector<Runtime> built_runtimes() {
  std::vector<Runtime> rts = {Runtime::kSerial, Runtime::kPool};
#if defined(PLT_HAVE_OPENMP)
  rts.push_back(Runtime::kOpenMP);
#endif
  return rts;
}

// A collective call by every member of a w-wide team region visits, per
// member and in order, exactly the program thread tid of a w-wide team is
// scheduled; at w = team that is what a standalone call runs. Swept over
// region widths 1 .. team + 1 (the last clamps to the team) on flat,
// recursive, barrier, grid, dynamic and serial plans.
TEST(Collective, VisitsTheStandaloneScheduleAtEveryRegionWidth) {
  const std::vector<LoopSpecs> small = {LoopSpecs{0, 8, 1, {4, 2}},
                                        LoopSpecs{0, 16, 2, {8, 4}},
                                        LoopSpecs{0, 12, 3, {6}}};
  const std::vector<LoopSpecs> large = {LoopSpecs{0, 32, 1, {}},
                                        LoopSpecs{0, 32, 1, {}},
                                        LoopSpecs{0, 16, 1, {}}};
  const std::vector<std::pair<std::vector<LoopSpecs>, const char*>> cases = {
      {small, "aBC"},
      {small, "a|Bc"},
      {small, "bC{R:2}aB{C:2}cb"},
      {small, "aBC @ schedule(dynamic,4)"},
      {small, "abc"},
      {large, "a|Bc"}};
  const int team = max_threads();
  for (const auto& [loops, spec] : cases) {
    LoopNest nest(loops, spec);
    const std::size_t nlog = loops.size();
    const auto record = [&](std::vector<std::vector<std::int64_t>>& got,
                            int tid, const std::int64_t* ind) {
      auto& v = got[static_cast<std::size_t>(tid)];
      v.insert(v.end(), ind, ind + nlog);
    };
    for (int w = 1; w <= team + 1; ++w) {
      const int members = std::min(w, team);
      std::vector<std::vector<std::int64_t>> got(
          static_cast<std::size_t>(members));
      team_region(
          [&](TeamMember& m) {
            ASSERT_EQ(m.nthreads(), members);
            nest.collective(m, [&](const std::int64_t* ind) {
              record(got, m.tid(), ind);
            });
          },
          w);
      const std::vector<ThreadProgram> want =
          record_team_programs(nest.plan(), members);
      for (int t = 0; t < members; ++t) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)],
                  want[static_cast<std::size_t>(t)].inds)
            << spec << " width " << w << " tid " << t;
      }
      if (members == team) {
        std::vector<std::vector<std::int64_t>> alone(
            static_cast<std::size_t>(team));
        nest([&](const std::int64_t* ind) { record(alone, thread_id(), ind); });
        EXPECT_EQ(alone, got) << spec;
      }
    }
  }
}

// The trailing barrier: a second collective nest reads what other members
// wrote in the first, with no region boundary in between.
TEST(Collective, EndsInARegionBarrier) {
  constexpr std::int64_t n = 64;
  LoopNest fill({LoopSpecs{0, n, 1, {}}}, "A");
  LoopNest shift({LoopSpecs{0, n, 1, {}}}, "A");
  for (Runtime rt : built_runtimes()) {
    const Runtime saved = runtime();
    set_runtime(rt);
    std::vector<std::int64_t> a(n, -1), b(n, -1);
    for (int round = 0; round < 50; ++round) {
      team_region([&](TeamMember& m) {
        fill.collective(m, [&](const std::int64_t* ind) {
          a[static_cast<std::size_t>(ind[0])] = ind[0] + round;
        });
        shift.collective(m, [&](const std::int64_t* ind) {
          b[static_cast<std::size_t>(ind[0])] =
              a[static_cast<std::size_t>((ind[0] + 1) % n)];
        });
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(b[static_cast<std::size_t>(i)], (i + 1) % n + round)
            << runtime_name(rt) << " round " << round;
      }
    }
    set_runtime(saved);
  }
}

// Inside an enclosing region the team region degrades to one member on each
// caller, which then runs the whole nest; the enclosing region is never the
// collective team.
TEST(Collective, NestedTeamRegionDegradesToOneMember) {
  LoopNest nest({LoopSpecs{0, 32, 1, {}}, LoopSpecs{0, 8, 1, {}}}, "A|b");
  const int team = max_threads();
  std::vector<std::atomic<int>> visits(static_cast<std::size_t>(team));
  parallel_region([&](int tid, int) {
    team_region([&](TeamMember& m) {
      EXPECT_EQ(m.tid(), 0);
      EXPECT_EQ(m.nthreads(), 1);
      nest.collective(m, [&](const std::int64_t*) {
        visits[static_cast<std::size_t>(tid)].fetch_add(1);
      });
    });
  });
  EXPECT_EQ(visits[0].load(), 32 * 8);
  for (const auto& v : visits) EXPECT_TRUE(v.load() == 0 || v.load() == 32 * 8);
}

// A body that throws on one member, before barriers its teammates wait at,
// reaches the caller under every runtime without a hang; the other members
// keep to the barrier protocol, and the next region runs normally.
TEST(Collective, BodyThrowReachesCallerUnderEveryRuntime) {
  LoopNest barriered({LoopSpecs{0, 32, 1, {}}, LoopSpecs{0, 32, 1, {}},
                      LoopSpecs{0, 16, 1, {}}},
                     "aB|c");  // recursive walk, a barrier per `a`
  LoopNest flat({LoopSpecs{0, 8, 1, {}}, LoopSpecs{0, 64, 1, {}}}, "a|B");
  for (Runtime rt : built_runtimes()) {
    const Runtime saved = runtime();
    set_runtime(rt);
    const int thrower = max_threads() - 1;
    for (const LoopNest* nest : {&barriered, &flat}) {
      std::atomic<int> after{0};
      EXPECT_THROW(team_region([&](TeamMember& m) {
                     nest->collective(m, [&](const std::int64_t* ind) {
                       if (m.tid() == thrower && ind[0] == 1) {
                         throw RuntimeError(StatusCode::kInternal, "body");
                       }
                     });
                     m.single([&] { after.fetch_add(1); });
                     // Begun after the failure: every member walks only the
                     // barriers.
                     barriered.collective(
                         m, [&](const std::int64_t*) { after.fetch_add(1); });
                   }),
                   RuntimeError)
          << runtime_name(rt);
      EXPECT_EQ(after.load(), 0) << runtime_name(rt);
      std::atomic<int> bodies{0};
      (*nest)([&](const std::int64_t*) { bodies.fetch_add(1); });
      EXPECT_EQ(bodies.load(), nest == &flat ? 8 * 64 : 32 * 32 * 16);
    }
    set_runtime(saved);
  }
}

}  // namespace
}  // namespace plt::parlooper
