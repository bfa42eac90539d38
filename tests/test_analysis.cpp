// Static schedule verifier (src/analysis/): coverage and race-freedom
// proofs over recorded ThreadPrograms, the mutation
// self-test, and the PLT_VERIFY_PLANS plan-compile-time hook.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/verifier.hpp"
#include "common/status.hpp"
#include "parlooper/threaded_loop.hpp"

namespace plt::analysis {
namespace {

using parlooper::AccessMap;
using parlooper::LoopNestPlan;
using parlooper::LoopSpecs;
using parlooper::ThreadProgram;

VerifyReport verify_team(const LoopNestPlan& plan, int nthreads,
                         const std::vector<AccessMap>& maps = {}) {
  return verify_programs(plan, parlooper::record_team_programs(plan, nthreads),
                         maps);
}

// --- coverage ----------------------------------------------------------------

TEST(Verifier, CoversPlainParallelNest) {
  LoopNestPlan plan({LoopSpecs{0, 4, 1}, LoopSpecs{0, 6, 1}}, "Ab");
  for (int n : default_team_sizes()) {
    const VerifyReport r = verify_team(plan, n);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_TRUE(r.coverage_checked);
  }
}

TEST(Verifier, CoversCollapseGroupWithRemainderChunks) {
  // 5 x 7 = 35 flat iterations over teams of 2/4/8: every remainder shape
  // (35 = 4*8+3 etc.) must still tile the space exactly once.
  LoopNestPlan plan({LoopSpecs{0, 5, 1}, LoopSpecs{0, 7, 1}}, "AB");
  for (int n : {1, 2, 4, 8, 16}) {
    const VerifyReport r = verify_team(plan, n);
    EXPECT_TRUE(r.ok()) << "n=" << n << ": " << r.summary();
  }
}

TEST(Verifier, CoversDynamicScheduleChunking) {
  LoopNestPlan plan({LoopSpecs{0, 5, 1}, LoopSpecs{0, 3, 1}},
                    "AB @ schedule(dynamic,2)");
  for (int n : default_team_sizes()) {
    const VerifyReport r = verify_team(plan, n);
    EXPECT_TRUE(r.ok()) << r.summary();
  }
}

TEST(Verifier, CoversBlockedReorderedSpec) {
  // Blocked loops ("bBCca"-family): the collapse group runs over block
  // heads, inner occurrences cover the intra-block points.
  LoopSpecs b{0, 8, 1, {4}};
  LoopSpecs c{0, 8, 1, {2}};
  LoopNestPlan plan({LoopSpecs{0, 2, 1}, b, c}, "bBCca");
  for (int n : default_team_sizes()) {
    const VerifyReport r = verify_team(plan, n);
    EXPECT_TRUE(r.ok()) << r.summary();
  }
}

TEST(Verifier, CoversExplicitGrid) {
  // 2x2 thread grid over a 6x4 space: teams smaller than the grid own
  // several cells, larger teams leave members idle — both must still cover.
  LoopNestPlan plan({LoopSpecs{0, 6, 1}, LoopSpecs{0, 4, 1}},
                    "A{R:2}B{C:2}");
  for (int n : {1, 2, 3, 4, 8}) {
    const VerifyReport r = verify_team(plan, n);
    EXPECT_TRUE(r.ok()) << "n=" << n << ": " << r.summary();
  }
}

TEST(Verifier, CoversTeamLargerThanIterationSpace) {
  LoopNestPlan plan({LoopSpecs{0, 3, 1}}, "A");
  const VerifyReport r = verify_team(plan, 8);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, CoversDegenerateTrips) {
  // Trip-1 loops collapse to a single tuple; trip-0 loops to none.
  LoopNestPlan one({LoopSpecs{0, 1, 1}, LoopSpecs{0, 1, 1}}, "Ab");
  EXPECT_TRUE(verify_team(one, 4).ok());

  LoopNestPlan zero({LoopSpecs{0, 0, 1}, LoopSpecs{0, 5, 1}}, "Ab");
  const VerifyReport r = verify_team(zero, 4);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_TRUE(r.coverage_checked);
}

TEST(Verifier, CoversSerialNestWithIdleThreads) {
  LoopNestPlan plan({LoopSpecs{0, 4, 1}, LoopSpecs{0, 4, 1}}, "ab");
  const VerifyReport r = verify_team(plan, 4);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Verifier, SkipsOversizedIterationSpaces) {
  LoopNestPlan plan({LoopSpecs{0, 64, 1}, LoopSpecs{0, 64, 1}}, "Ab");
  VerifyOptions opts;
  opts.max_iterations = 100;  // 4096 > 100 -> skip, not fail
  const VerifyReport r = verify_plan(plan, 4, opts);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.coverage_checked);
  EXPECT_FALSE(r.races_checked);
}

// --- race-freedom ------------------------------------------------------------

TEST(Verifier, FlagsOverlappingWritesAcrossThreads) {
  // Every invocation writes element 0: any team wider than one races.
  LoopNestPlan plan({LoopSpecs{0, 4, 1}}, "A");
  AccessMap everyone_writes_zero;
  everyone_writes_zero.add_write("x", {0}, 1);
  EXPECT_TRUE(verify_team(plan, 1, {everyone_writes_zero}).ok());
  const VerifyReport r = verify_team(plan, 4, {everyone_writes_zero});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(IssueKind::kRace)) << r.summary();
}

TEST(Verifier, AcceptsDisjointStridedTileWrites) {
  // Column tiles with a leading-dimension stride (the SpMM/FC shape):
  // disjoint across (a, b) owners, so any team size is race-free.
  LoopNestPlan plan({LoopSpecs{0, 4, 1}, LoopSpecs{0, 4, 1}}, "AB");
  AccessMap tiles;
  tiles.add_write("c", {4, 64}, 4, /*reps=*/4, /*rep_stride=*/16);
  for (int n : default_team_sizes()) {
    EXPECT_TRUE(verify_team(plan, n, {tiles}).ok()) << "n=" << n;
  }
}

TEST(Verifier, FlagsRawHazardWithinSegmentButNotAcrossBarrier) {
  // Two-phase plan: phase a writes row a, reads row a-1 (the self-test
  // shape). With the barrier the schedule is clean; the same accesses on a
  // barrier-less spec put producer and consumer in one segment -> RAW.
  AccessMap map;
  map.add_write("x", {16, 1}, 1);
  map.add_read("x", {16, 1}, 2, 1, 0, /*base=*/-16);

  LoopNestPlan with_barrier({LoopSpecs{0, 2, 1}, LoopSpecs{0, 8, 1}}, "aB|");
  EXPECT_TRUE(verify_team(with_barrier, 4, {map}).ok());

  LoopNestPlan no_barrier({LoopSpecs{0, 2, 1}, LoopSpecs{0, 8, 1}}, "aB");
  const VerifyReport r = verify_team(no_barrier, 4, {map});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(IssueKind::kReadAfterWrite)) << r.summary();
}

TEST(Verifier, FlagsInOutAliasingViaSharedTensorName) {
  // Parallel threads read a neighbour's slot of the same buffer they write:
  // same tensor name makes the conflict visible.
  LoopNestPlan plan({LoopSpecs{0, 8, 1}}, "A");
  AccessMap aliased;
  aliased.add_write("buf", {1}, 1);
  aliased.add_read("buf", {1}, 1, 1, 0, /*base=*/1);  // reads slot a+1
  const VerifyReport r = verify_team(plan, 4, {aliased});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(IssueKind::kReadAfterWrite)) << r.summary();
}

// --- mutations ---------------------------------------------------------------

TEST(Verifier, DetectsDroppedTuple) {
  LoopNestPlan plan({LoopSpecs{0, 4, 1}, LoopSpecs{0, 4, 1}}, "AB");
  auto team = parlooper::record_team_programs(plan, 4);
  auto mutated = mutate_programs(team, Mutation::kDropTuple, 2);
  ASSERT_FALSE(mutated.empty());
  const VerifyReport r = verify_programs(plan, mutated, {});
  EXPECT_TRUE(r.has(IssueKind::kCoverage)) << r.summary();
}

TEST(Verifier, DetectsDuplicatedTuple) {
  LoopNestPlan plan({LoopSpecs{0, 4, 1}, LoopSpecs{0, 4, 1}}, "AB");
  auto team = parlooper::record_team_programs(plan, 4);
  auto mutated = mutate_programs(team, Mutation::kDuplicateTuple, 2);
  ASSERT_FALSE(mutated.empty());
  const VerifyReport r = verify_programs(plan, mutated, {});
  EXPECT_TRUE(r.has(IssueKind::kCoverage)) << r.summary();
}

TEST(Verifier, CrossBarrierSwapNeedsAMultiSegmentProgram) {
  LoopNestPlan flat({LoopSpecs{0, 4, 1}}, "A");
  auto team = parlooper::record_team_programs(flat, 2);
  EXPECT_TRUE(mutate_programs(team, Mutation::kCrossBarrierSwap, 1).empty());
}

TEST(Verifier, MutationSelfTestPasses) {
  EXPECT_EQ(mutation_self_test(), "");
}

// --- plan-compile-time hook --------------------------------------------------

// Unique bounds per test so the plan cache (keyed by bounds+spec) and the
// hook's per-plan memo cannot leak state between tests.

TEST(VerifyPlansHook, Mode2FailsConstructionOfRacyPlan) {
  ::setenv("PLT_VERIFY_PLANS", "2", 1);
  AccessMap everyone_writes_zero;
  everyone_writes_zero.add_write("x", {0}, 1);
  EXPECT_THROW(
      parlooper::LoopNest({LoopSpecs{0, 13, 1}}, "A", everyone_writes_zero),
      RuntimeError);
  // Not memoized on failure: constructing the same plan fails again.
  EXPECT_THROW(
      parlooper::LoopNest({LoopSpecs{0, 13, 1}}, "A", everyone_writes_zero),
      RuntimeError);
  ::unsetenv("PLT_VERIFY_PLANS");
}

TEST(VerifyPlansHook, Mode1WarnsButConstructs) {
  ::setenv("PLT_VERIFY_PLANS", "1", 1);
  AccessMap everyone_writes_zero;
  everyone_writes_zero.add_write("x", {0}, 1);
  parlooper::LoopNest nest({LoopSpecs{0, 17, 1}}, "A", everyone_writes_zero);
  ::unsetenv("PLT_VERIFY_PLANS");
  int count = 0;
  nest([&](const std::int64_t*) { ++count; });
  EXPECT_EQ(count, 17);
}

TEST(VerifyPlansHook, Mode2PassesCleanPlans) {
  ::setenv("PLT_VERIFY_PLANS", "2", 1);
  AccessMap per_owner;
  per_owner.add_write("x", {1, 0}, 1);
  parlooper::LoopNest nest({LoopSpecs{0, 19, 1}, LoopSpecs{0, 3, 1}}, "Ab",
                           per_owner);
  ::unsetenv("PLT_VERIFY_PLANS");
  int count = 0;
  nest([&](const std::int64_t*) { ++count; });
  EXPECT_EQ(count, 57);
}

// --- report plumbing ---------------------------------------------------------

TEST(Verifier, ReportSummaryNamesIssueKinds) {
  LoopNestPlan plan({LoopSpecs{0, 4, 1}}, "A");
  AccessMap racy;
  racy.add_write("x", {0}, 1);
  const VerifyReport r = verify_team(plan, 2, {racy});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.summary().find("race"), std::string::npos);
  EXPECT_NE(r.summary().find("segment"), std::string::npos);
}

TEST(Verifier, StructureMismatchIsFlagged) {
  LoopNestPlan plan({LoopSpecs{0, 2, 1}, LoopSpecs{0, 8, 1}}, "aB|");
  auto team = parlooper::record_team_programs(plan, 2);
  team[1].seg_len.push_back(0);  // thread 1 claims an extra barrier
  const VerifyReport r = verify_programs(plan, team, {});
  EXPECT_TRUE(r.has(IssueKind::kStructure)) << r.summary();
}

}  // namespace
}  // namespace plt::analysis
