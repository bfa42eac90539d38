// Persistent-runtime tests: pool barrier correctness (including teams wider
// than the machine), cross-runtime determinism of PARLOOPER nests, flat
// precompiled schedules vs the recursive traversal, and KernelCache stats
// exactness under a multi-threaded hit storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "common/threading.hpp"
#include "parlooper/threaded_loop.hpp"
#include "test_utils.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/kernel_cache.hpp"

namespace plt {
namespace {

using parlooper::LoopNest;
using parlooper::LoopSpecs;

TEST(ThreadPool, RunsEveryMemberExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> seen{0};
  std::vector<int> tids(4, -1);
  struct Ctx {
    std::atomic<int>* seen;
    std::vector<int>* tids;
  } ctx{&seen, &tids};
  pool.run(
      [](void* c, int tid, int nthreads) {
        auto* x = static_cast<Ctx*>(c);
        ASSERT_EQ(nthreads, 4);
        (*x->tids)[static_cast<std::size_t>(tid)] = tid;
        x->seen->fetch_add(1);
      },
      &ctx);
  EXPECT_EQ(seen.load(), 4);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(tids[static_cast<std::size_t>(t)], t);
}

TEST(ThreadPool, BarrierPhasesStayAlignedUnderOversubscription) {
  // 8 threads on however few cores the machine has: the barrier must still
  // separate phases. Each thread publishes its phase before the barrier and
  // asserts after it that nobody is still in an older phase.
  constexpr int kThreads = 8, kPhases = 25;
  ThreadPool pool(kThreads);
  struct Ctx {
    std::atomic<int> phase[kThreads];
    std::atomic<int> violations{0};
    ThreadPool* pool;
  } ctx;
  for (auto& p : ctx.phase) p.store(-1);
  ctx.pool = &pool;
  pool.run(
      [](void* c, int tid, int nthreads) {
        auto* x = static_cast<Ctx*>(c);
        for (int ph = 0; ph < kPhases; ++ph) {
          x->phase[tid].store(ph, std::memory_order_release);
          x->pool->barrier(tid);
          for (int t = 0; t < nthreads; ++t) {
            if (x->phase[t].load(std::memory_order_acquire) < ph) {
              x->violations.fetch_add(1);
            }
          }
          x->pool->barrier(tid);
        }
      },
      &ctx);
  EXPECT_EQ(ctx.violations.load(), 0);
}

TEST(ThreadPool, ThreadBarrierRoutesToActiveRegion) {
  // plt::thread_barrier() must resolve to the pool's barrier inside a pool
  // region (and be a no-op in a serial one).
  const Runtime saved = runtime();
  set_runtime(Runtime::kPool);
  std::atomic<int> after{0};
  parallel_region([&](int, int nthreads) {
    thread_barrier();
    after.fetch_add(1);
    thread_barrier();
    EXPECT_EQ(after.load(), nthreads);
  });
  set_runtime(Runtime::kSerial);
  parallel_region([&](int, int) { thread_barrier(); });
  set_runtime(saved);
}

TEST(ThreadPool, ConcurrentDispatchersFromUserThreadsDoNotDeadlock) {
  // Two application threads invoking nests at once (a serving host): only
  // one may own the team; the other must degrade to a serial region rather
  // than race on the dispatch state. Every iteration must still run.
  const Runtime saved = runtime();
  set_runtime(Runtime::kPool);
  constexpr int kDrivers = 4, kRepeats = 200;
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 16, 1, {}}};
  LoopNest nest(loops, "A");
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&] {
      for (int i = 0; i < kRepeats; ++i) {
        nest([&](const std::int64_t* ind) {
          total.fetch_add(1 + ind[0], std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& th : drivers) th.join();
  // 16 bodies per invocation, sum(1 + 0..15) = 136 each.
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kDrivers) * kRepeats * 136);
  set_runtime(saved);
}

TEST(ThreadPool, NestedRegionDegradesToSerial) {
  const Runtime saved = runtime();
  set_runtime(Runtime::kPool);
  std::atomic<int> inner_teams{0};
  parallel_region([&](int, int) {
    parallel_region([&](int tid, int nthreads) {
      EXPECT_EQ(tid, 0);
      EXPECT_EQ(nthreads, 1);
      inner_teams.fetch_add(1);
    });
  });
  EXPECT_GE(inner_teams.load(), 1);
  set_runtime(saved);
}

TEST(ThreadPool, NestedRecursiveNestBarrierCompletes) {
  // A nest above the flat-schedule cap runs the recursive interpreter, which
  // calls thread_barrier() after the `a|` level. Invoked by one member of an
  // enclosing region, it degrades to a serial nested region whose barrier
  // must stay inside that one-member region: routed into the enclosing
  // team's barrier it would wait forever for members that never arrive.
  static_assert(32 * 32 * 16 > parlooper::LoopNestPlan::kFlatScheduleMaxIters,
                "the nest must be above the flat-schedule cap");
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 32, 1, {}},
                                  LoopSpecs{0, 32, 1, {}},
                                  LoopSpecs{0, 16, 1, {}}};
  LoopNest nest(loops, "a|Bc");
  ASSERT_EQ(nest.plan().team_schedule(1), nullptr);
  std::atomic<std::int64_t> visits{0};
  parallel_region([&](int tid, int) {
    if (tid != 0) return;
    nest([&](const std::int64_t*) {
      visits.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(visits.load(), 32 * 32 * 16);
}

// --- partitioned pool --------------------------------------------------------

TEST(PartitionedPool, LayoutIsBalancedContiguousAndExact) {
  // The split must be a pure function of (nthreads, nparts): balanced
  // contiguous sub-teams, larger ones first, covering every slot.
  ThreadPool pool(7, /*pin=*/false, /*partitions=*/3);
  EXPECT_EQ(pool.size(), 7);
  EXPECT_EQ(pool.partitions(), 3);
  EXPECT_EQ(pool.partition_size(0), 3);
  EXPECT_EQ(pool.partition_size(1), 2);
  EXPECT_EQ(pool.partition_size(2), 2);
  EXPECT_EQ(pool.partition_size(-1), 0);
  EXPECT_EQ(pool.partition_size(3), 0);
}

TEST(PartitionedPool, PartitionCountClampsToTeamSize) {
  ThreadPool pool(2, /*pin=*/false, /*partitions=*/8);
  EXPECT_EQ(pool.partitions(), 2);
  EXPECT_EQ(pool.partition_size(0), 1);
  EXPECT_EQ(pool.partition_size(1), 1);
}

class PartitionedBarrierP : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedBarrierP, HierarchicalBarrierStormUnderOversubscription) {
  // 8 threads on however few cores the machine has, split into 1..4
  // partitions: the hierarchical (leaf + root) barrier must still separate
  // phases across the WHOLE team, not just within a partition.
  constexpr int kThreads = 8, kPhases = 25;
  ThreadPool pool(kThreads, /*pin=*/false, GetParam());
  struct Ctx {
    std::atomic<int> phase[kThreads];
    std::atomic<int> violations{0};
    ThreadPool* pool;
  } ctx;
  for (auto& p : ctx.phase) p.store(-1);
  ctx.pool = &pool;
  pool.run(
      [](void* c, int tid, int nthreads) {
        auto* x = static_cast<Ctx*>(c);
        for (int ph = 0; ph < kPhases; ++ph) {
          x->phase[tid].store(ph, std::memory_order_release);
          x->pool->barrier(tid);
          for (int t = 0; t < nthreads; ++t) {
            if (x->phase[t].load(std::memory_order_acquire) < ph) {
              x->violations.fetch_add(1);
            }
          }
          x->pool->barrier(tid);
        }
      },
      &ctx);
  EXPECT_EQ(ctx.violations.load(), 0);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.team_regions, 1u);
  EXPECT_GT(stats.barrier_epochs, 0u);
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedBarrierP,
                         ::testing::Values(1, 2, 3, 4));

TEST(PartitionedPool, WholeTeamResultsBitwiseIdenticalAcrossPartitionCounts) {
  // Iteration partitioning is a pure function of (tid, nthreads), so a
  // fixed-size team must produce byte-identical output no matter how many
  // partitions it is split into (the ISSUE 5 determinism criterion).
  constexpr int kThreads = 4;
  constexpr std::size_t kN = 1 << 10;
  const auto compute = [](ThreadPool& pool) {
    std::vector<float> out(kN, 0.0f);
    struct Ctx {
      std::vector<float>* out;
    } ctx{&out};
    pool.run(
        [](void* c, int tid, int nthreads) {
          auto* x = static_cast<Ctx*>(c);
          const std::size_t n = x->out->size();
          for (std::size_t i = static_cast<std::size_t>(tid); i < n;
               i += static_cast<std::size_t>(nthreads)) {
            float acc = 0.0f;
            for (int k = 1; k <= 16; ++k) {
              acc += 1.0f / static_cast<float>(static_cast<int>(i) + k);
            }
            (*x->out)[i] = acc;
          }
        },
        &ctx);
    return out;
  };
  std::vector<std::vector<float>> results;
  for (int parts : {1, 2, 3, 4}) {
    ThreadPool pool(kThreads, /*pin=*/false, parts);
    results.push_back(compute(pool));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             kN * sizeof(float)))
        << "partitions config " << i;
  }
}

TEST(PartitionedPool, RunOnExecutesConcurrentlyOnDistinctPartitions) {
  // Two driver threads dispatch onto partitions 0 and 1 at the same time;
  // both regions must run on their own sub-team (not degrade), and in every
  // rep both regions must be in flight at once: tid 0 of each waits at a
  // rendezvous for its counterpart before leaving. A global dispatch lock
  // serializing run_on() would strand the first region at the rendezvous;
  // the wait is bounded, so that fails the test instead of hanging it.
  constexpr int kReps = 50;
  ThreadPool pool(4, /*pin=*/false, /*partitions=*/2);
  ASSERT_EQ(pool.partition_size(0), 2);
  ASSERT_EQ(pool.partition_size(1), 2);
  struct Ctx {
    ThreadPool* pool;
    std::atomic<int> arrived[kReps];
    std::atomic<bool> timed_out{false};
    std::atomic<int> ran[2];
  } ctx;
  ctx.pool = &pool;
  for (auto& a : ctx.arrived) a.store(0);
  for (auto& r : ctx.ran) r.store(0);

  const auto driver = [&ctx](int part) {
    struct Arg {
      Ctx* ctx;
      int part;
      int rep;
    } arg{&ctx, part, 0};
    for (; arg.rep < kReps; ++arg.rep) {
      const bool on_team = ctx.pool->run_on(
          part,
          [](void* c, int tid, int nthreads) {
            auto* a = static_cast<Arg*>(c);
            a->ctx->ran[a->part].fetch_add(1);
            if (tid == 0) {
              std::atomic<int>& arrived = a->ctx->arrived[a->rep];
              arrived.fetch_add(1, std::memory_order_acq_rel);
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(5);
              while (arrived.load(std::memory_order_acquire) < 2 &&
                     !a->ctx->timed_out.load(std::memory_order_acquire)) {
                if (std::chrono::steady_clock::now() > deadline) {
                  a->ctx->timed_out.store(true, std::memory_order_release);
                }
                std::this_thread::yield();
              }
            }
            a->ctx->pool->barrier(tid);
            EXPECT_EQ(nthreads, 2);
          },
          &arg);
      EXPECT_TRUE(on_team) << "partition " << part << " rep " << arg.rep;
    }
  };
  std::thread t0(driver, 0), t1(driver, 1);
  t0.join();
  t1.join();
  EXPECT_FALSE(ctx.timed_out.load())
      << "the two partitions' regions were never in flight together";
  for (int rep = 0; rep < kReps; ++rep) {
    EXPECT_EQ(ctx.arrived[rep].load(), 2) << "rep " << rep;
  }
  // Every region ran on a 2-member sub-team: kReps x 2 members each.
  EXPECT_EQ(ctx.ran[0].load(), 2 * kReps);
  EXPECT_EQ(ctx.ran[1].load(), 2 * kReps);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.partition[0].regions, static_cast<std::uint64_t>(kReps));
  EXPECT_EQ(stats.partition[1].regions, static_cast<std::uint64_t>(kReps));
  EXPECT_EQ(stats.serial_degradations, 0u);
}

TEST(PartitionedPool, RunOnMatchesSerialReferenceBitwise) {
  // The same reduction run serially, on partition 0, and on partition 1
  // must agree byte for byte: a sub-team region is still a pure
  // (tid, nthreads) partitioning of the iteration space.
  ThreadPool pool(4, /*pin=*/false, /*partitions=*/2);
  constexpr std::size_t kN = 512;
  const auto compute = [&](int mode) {  // -1 = serial, else partition
    std::vector<float> out(kN, 0.0f);
    struct Ctx {
      std::vector<float>* out;
    } ctx{&out};
    const ThreadPool::RegionFn fn = [](void* c, int tid, int nthreads) {
      auto* x = static_cast<Ctx*>(c);
      for (std::size_t i = static_cast<std::size_t>(tid); i < x->out->size();
           i += static_cast<std::size_t>(nthreads)) {
        float acc = 0.0f;
        for (int k = 1; k <= 8; ++k) {
          acc += static_cast<float>(static_cast<int>(i) * k) * 0.03125f;
        }
        (*x->out)[i] = acc;
      }
    };
    if (mode < 0) {
      fn(&ctx, 0, 1);
    } else {
      EXPECT_TRUE(pool.run_on(mode, fn, &ctx));
    }
    return out;
  };
  const auto serial = compute(-1);
  const auto p0 = compute(0);
  const auto p1 = compute(1);
  EXPECT_EQ(0, std::memcmp(serial.data(), p0.data(), kN * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(serial.data(), p1.data(), kN * sizeof(float)));
}

TEST(PartitionedPool, BusyPartitionDegradesRunOnToSerial) {
  ThreadPool pool(4, /*pin=*/false, /*partitions=*/2);
  struct Ctx {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> inner_runs{0};
  } ctx;

  std::thread holder([&] {
    pool.run_on(
        1,
        [](void* c, int, int) {
          auto* x = static_cast<Ctx*>(c);
          x->started.store(true, std::memory_order_release);
          while (!x->release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        &ctx);
  });
  while (!ctx.started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Partition 1 is owned by `holder`: this dispatch must degrade to a
  // serial call (returning false) yet still execute the region body.
  const bool on_team = pool.run_on(
      1,
      [](void* c, int tid, int nthreads) {
        auto* x = static_cast<Ctx*>(c);
        EXPECT_EQ(tid, 0);
        EXPECT_EQ(nthreads, 1);
        x->inner_runs.fetch_add(1);
      },
      &ctx);
  EXPECT_FALSE(on_team);
  EXPECT_EQ(ctx.inner_runs.load(), 1);
  ctx.release.store(true, std::memory_order_release);
  holder.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.serial_degradations, 1u);
  EXPECT_EQ(stats.partition[1].regions, 1u);  // only the holder's region
}

TEST(PartitionedPool, StatsCountRegionsDegradationsAndSteals) {
  ThreadPool pool(4, /*pin=*/false, /*partitions=*/2);
  struct Ctx {
    ThreadPool* pool;
  } ctx{&pool};
  for (int i = 0; i < 3; ++i) {
    pool.run([](void*, int, int) {}, &ctx);
  }
  for (int i = 0; i < 2; ++i) {
    pool.run_on(1, [](void*, int, int) {}, &ctx);
  }
  // Nested dispatch from every team member: 4 serial degradations exactly.
  pool.run(
      [](void* c, int, int) {
        auto* x = static_cast<Ctx*>(c);
        x->pool->run([](void*, int, int) {}, nullptr);
      },
      &ctx);
  pool.note_steal(0);
  pool.note_steal(1);
  pool.note_steal(1);
  pool.note_steal(99);  // out of range: ignored

  const auto s = pool.stats();
  EXPECT_EQ(s.team_regions, 4u);  // 3 + the outer nested-test region
  EXPECT_EQ(s.serial_degradations, 4u);
  ASSERT_EQ(s.partition.size(), 2u);
  EXPECT_EQ(s.partition[0].regions, 0u);
  EXPECT_EQ(s.partition[1].regions, 2u);
  EXPECT_EQ(s.partition[0].steals, 1u);
  EXPECT_EQ(s.partition[1].steals, 2u);
}

// --- width-sized regions ----------------------------------------------------

// Records which members a width-w region ran, the nthreads each saw, and
// whether every member had arrived once the in-region barrier released.
struct WidthProbe {
  ThreadPool* pool = nullptr;
  int width = 0;
  int throw_tid = -1;  // member that throws before the barrier; -1 = none
  std::atomic<int> calls[8];
  std::atomic<int> wrong_nthreads{0};
  std::atomic<int> arrived{0};
  std::atomic<int> early_release{0};

  void reset(int w, int thrower) {
    width = w;
    throw_tid = thrower;
    for (auto& c : calls) c.store(0);
    wrong_nthreads.store(0);
    arrived.store(0);
    early_release.store(0);
  }
  static void body(void* c, int tid, int nthreads) {
    auto* x = static_cast<WidthProbe*>(c);
    x->calls[tid].fetch_add(1);
    if (nthreads != x->width) x->wrong_nthreads.fetch_add(1);
    if (tid == x->throw_tid) {
      throw RuntimeError(StatusCode::kInternal, "last member threw");
    }
    x->arrived.fetch_add(1);
    x->pool->barrier(tid);
    if (x->arrived.load() != nthreads) x->early_release.fetch_add(1);
  }
  void expect_ran_exactly_members(const std::string& where) const {
    for (int t = 0; t < 8; ++t) {
      EXPECT_EQ(calls[t].load(), t < width ? 1 : 0) << where << " tid " << t;
    }
    EXPECT_EQ(wrong_nthreads.load(), 0) << where;
    EXPECT_EQ(early_release.load(), 0) << where;
  }
};

class RegionWidthP : public ::testing::TestWithParam<int> {};

TEST_P(RegionWidthP, RunWakesExactlyTheFirstWidthMembers) {
  constexpr int kTeam = 4;
  ThreadPool pool(kTeam, /*pin=*/false, GetParam());
  WidthProbe probe;
  probe.pool = &pool;
  // Repeat every width so a member that skipped a narrower region is still
  // woken correctly for the next one it belongs to.
  for (int rep = 0; rep < 3; ++rep) {
    for (int w = 1; w <= kTeam; ++w) {
      probe.reset(w, -1);
      pool.run(&WidthProbe::body, &probe, w);
      probe.expect_ran_exactly_members("run width " + std::to_string(w));
    }
  }
  // Out-of-range widths mean the whole team.
  for (int w : {0, -3, kTeam + 5}) {
    probe.reset(kTeam, -1);
    pool.run(&WidthProbe::body, &probe, w);
    probe.expect_ran_exactly_members("run width " + std::to_string(w));
  }
  EXPECT_EQ(pool.stats().serial_degradations, 0u);
}

TEST_P(RegionWidthP, RunOnWakesExactlyTheFirstWidthMembers) {
  ThreadPool pool(4, /*pin=*/false, GetParam());
  WidthProbe probe;
  probe.pool = &pool;
  for (int p = 0; p < pool.partitions(); ++p) {
    for (int rep = 0; rep < 3; ++rep) {
      for (int w = 1; w <= pool.partition_size(p); ++w) {
        probe.reset(w, -1);
        EXPECT_TRUE(pool.run_on(p, &WidthProbe::body, &probe, w));
        probe.expect_ran_exactly_members("run_on p" + std::to_string(p) +
                                         " width " + std::to_string(w));
      }
    }
  }
  EXPECT_EQ(pool.stats().serial_degradations, 0u);
}

TEST_P(RegionWidthP, ThrowFromLastMemberRethrownAndPoolReusable) {
  constexpr int kTeam = 4;
  ThreadPool pool(kTeam, /*pin=*/false, GetParam());
  WidthProbe probe;
  probe.pool = &pool;
  const auto expect_usable = [&](const std::string& where) {
    probe.reset(kTeam, -1);
    pool.run(&WidthProbe::body, &probe, kTeam);
    probe.expect_ran_exactly_members(where + ", then full run");
    for (int p = 0; p < pool.partitions(); ++p) {
      probe.reset(pool.partition_size(p), -1);
      EXPECT_TRUE(pool.run_on(p, &WidthProbe::body, &probe));
      probe.expect_ran_exactly_members(where + ", then full run_on p" +
                                       std::to_string(p));
    }
  };
  for (int w = 1; w <= kTeam; ++w) {
    // Member w-1 throws before the barrier its teammates wait at.
    probe.reset(w, w - 1);
    EXPECT_THROW(pool.run(&WidthProbe::body, &probe, w), RuntimeError)
        << "run width " << w;
    expect_usable("run width " + std::to_string(w));
  }
  for (int p = 0; p < pool.partitions(); ++p) {
    for (int w = 1; w <= pool.partition_size(p); ++w) {
      probe.reset(w, w - 1);
      EXPECT_THROW(pool.run_on(p, &WidthProbe::body, &probe, w), RuntimeError)
          << "run_on p" << p << " width " << w;
      expect_usable("run_on p" + std::to_string(p) + " width " +
                    std::to_string(w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, RegionWidthP,
                         ::testing::Values(1, 2));

// --- cross-runtime determinism ----------------------------------------------

struct Coverage {
  std::mutex mu;
  std::map<std::vector<std::int64_t>, int> visits;
};

std::map<std::vector<std::int64_t>, int> run_coverage(const char* spec,
                                                      Runtime rt) {
  const Runtime saved = runtime();
  set_runtime(rt);
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 8, 1, {4, 2}},
                                  LoopSpecs{0, 16, 2, {8, 4}},
                                  LoopSpecs{0, 12, 3, {6}}};
  LoopNest nest(loops, spec);
  Coverage cov;
  nest([&](const std::int64_t* ind) {
    std::vector<std::int64_t> v(ind, ind + 3);
    std::lock_guard<std::mutex> lock(cov.mu);
    ++cov.visits[v];
  });
  set_runtime(saved);
  return cov.visits;
}

class RuntimeSweepP : public ::testing::TestWithParam<const char*> {};

TEST_P(RuntimeSweepP, IterationCoverageIdenticalAcrossRuntimes) {
  const auto serial = run_coverage(GetParam(), Runtime::kSerial);
  const auto pool = run_coverage(GetParam(), Runtime::kPool);
  const auto omp = run_coverage(GetParam(), Runtime::kOpenMP);
  EXPECT_EQ(serial, pool) << GetParam();
  EXPECT_EQ(serial, omp) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Specs, RuntimeSweepP,
    ::testing::Values("abc", "cba", "aBc", "aBC", "ABC", "bcaBCb", "aabbcc",
                      "aBC @ schedule(dynamic,1)", "a|Bc", "bC{R:2}aB{C:2}cb",
                      "B{R:2}C{C:2}a", "cabCBa"));

TEST(RuntimeDeterminism, GemmBitwiseIdenticalAcrossRuntimes) {
  // A blocked parallel GEMM must produce byte-identical C under every
  // runtime: block ownership and the per-block reduction order are pure
  // functions of the iteration space, not of the backend.
  const std::int64_t Mb = 4, Nb = 4, Kb = 4, bm = 8, bn = 8, bk = 8;
  const std::size_t a_sz = static_cast<std::size_t>(Mb * Kb * bm * bk);
  const std::size_t b_sz = static_cast<std::size_t>(Nb * Kb * bn * bk);
  const std::size_t c_sz = static_cast<std::size_t>(Mb * Nb * bm * bn);
  const auto a = test::random_vec(a_sz, 7);
  const auto b = test::random_vec(b_sz, 8);
  tpp::BrgemmTPP brgemm(bm, bn, bk, bk * bm, bn * bk, 1.0f);

  auto run_with = [&](Runtime rt) {
    const Runtime saved = runtime();
    set_runtime(rt);
    std::vector<float> c(c_sz, 0.0f);
    std::vector<LoopSpecs> loops = {LoopSpecs{0, Kb, 1, {}},
                                    LoopSpecs{0, Mb, 1, {}},
                                    LoopSpecs{0, Nb, 1, {}}};
    LoopNest gemm(loops, "aBC");
    gemm([&](const std::int64_t* ind) {
      const std::int64_t ik = ind[0], im = ind[1], in = ind[2];
      brgemm(a.data() + ((im * Kb + ik) * bk * bm),
             b.data() + ((in * Kb + ik) * bn * bk),
             c.data() + ((in * Mb + im) * bn * bm), 1);
    });
    set_runtime(saved);
    return c;
  };

  const auto c_serial = run_with(Runtime::kSerial);
  const auto c_pool = run_with(Runtime::kPool);
  const auto c_omp = run_with(Runtime::kOpenMP);
  EXPECT_EQ(0, std::memcmp(c_serial.data(), c_pool.data(),
                           c_sz * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(c_serial.data(), c_omp.data(),
                           c_sz * sizeof(float)));
}

// --- flat precompiled schedules ---------------------------------------------

class FlatScheduleP : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatScheduleP, MatchesRecursiveSimulationPerThread) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 8, 1, {4, 2}},
                                  LoopSpecs{0, 16, 2, {8, 4}},
                                  LoopSpecs{0, 12, 3, {6}}};
  LoopNest nest(loops, GetParam());
  const parlooper::LoopNestPlan& plan = nest.plan();
  ASSERT_LE(plan.total_iterations(),
            parlooper::LoopNestPlan::kFlatScheduleMaxIters);
  for (int nthreads : {1, 2, 3, 5}) {
    const parlooper::TeamSchedule* sched = plan.team_schedule(nthreads);
    ASSERT_NE(sched, nullptr);
    ASSERT_EQ(sched->nthreads, nthreads);
    ASSERT_EQ(sched->threads.size(), static_cast<std::size_t>(nthreads));
    for (int tid = 0; tid < nthreads; ++tid) {
      std::vector<std::int64_t> trace;
      parlooper::simulate_thread(plan, tid, nthreads,
                                 [&](const std::int64_t* ind) {
                                   trace.insert(trace.end(), ind, ind + 3);
                                 });
      const parlooper::ThreadProgram& prog =
          sched->threads[static_cast<std::size_t>(tid)];
      EXPECT_EQ(prog.inds, trace)
          << GetParam() << " tid " << tid << "/" << nthreads;
      std::int64_t seg_sum = 0;
      for (std::int64_t s : prog.seg_len) seg_sum += s;
      EXPECT_EQ(seg_sum * 3, static_cast<std::int64_t>(prog.inds.size()));
    }
    // Barrier counts must agree across the team or execution would deadlock.
    for (int tid = 1; tid < nthreads; ++tid) {
      EXPECT_EQ(sched->threads[static_cast<std::size_t>(tid)].seg_len.size(),
                sched->threads[0].seg_len.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FlatScheduleP,
    ::testing::Values("abc", "aBc", "ABC", "bcaBCb", "aabbcc",
                      "aBC @ schedule(dynamic,1)", "a|Bc", "a|b|C",
                      "bC{R:2}aB{C:2}cb", "B{R:2}C{C:2}a", "cabCBa"));

TEST(FlatSchedule, LookupIsMemoizedPerTeamSize) {
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 16, 1, {}}};
  LoopNest nest(loops, "A");
  const auto* s1 = nest.plan().team_schedule(3);
  const auto* s2 = nest.plan().team_schedule(3);
  const auto* s4 = nest.plan().team_schedule(4);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s4);
}

TEST(FlatSchedule, HugeNestFallsBackToRecursive) {
  const std::int64_t big = parlooper::LoopNestPlan::kFlatScheduleMaxIters + 1;
  std::vector<LoopSpecs> loops = {LoopSpecs{0, big, 1, {}}};
  LoopNest nest(loops, "A");
  EXPECT_EQ(nest.plan().team_schedule(2), nullptr);
  // Still executes correctly through the recursive path.
  std::atomic<std::int64_t> count{0};
  nest([&](const std::int64_t*) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), big);
}

// --- kernel cache ------------------------------------------------------------

TEST(KernelCache, MissesCountCodegenEventsExactly) {
  tpp::KernelCache<int> cache;
  std::atomic<int> factory_runs{0};
  const auto factory = [&] {
    factory_runs.fetch_add(1);
    return std::make_shared<int>(42);
  };
  EXPECT_EQ(*cache.get_or_create("k", factory), 42);
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(*cache.get_or_create("k", factory), 42);
  s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(factory_runs.load(), 1);
  EXPECT_EQ(static_cast<std::uint64_t>(factory_runs.load()), s.misses);
}

TEST(KernelCache, HitStormStatsAreExact) {
  // Pre-warmed keys hammered from many threads: every lookup must be
  // counted as exactly one hit — no lost updates, no phantom misses.
  tpp::KernelCache<int> cache;
  constexpr int kKeys = 4, kThreads = 8, kIters = 5000;
  for (int k = 0; k < kKeys; ++k) {
    cache.get_or_create("key" + std::to_string(k),
                        [k] { return std::make_shared<int>(k); });
  }
  const auto warm = cache.stats();
  ASSERT_EQ(warm.misses, static_cast<std::uint64_t>(kKeys));

  std::vector<std::thread> threads;
  std::atomic<int> wrong_values{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % kKeys;
        auto v = cache.get_or_create(
            "key" + std::to_string(k),
            [] { return std::make_shared<int>(-1); });
        if (*v != k) wrong_values.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong_values.load(), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(s.hits, warm.hits + static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
}

TEST(KernelCache, ColdStormAccountsEveryFactoryRun) {
  // All threads race on one cold key: hits + misses must equal the number
  // of lookups, misses must equal actual factory invocations (a loser of
  // the insert race did run codegen), and exactly one kernel must survive.
  tpp::KernelCache<int> cache;
  constexpr int kThreads = 8;
  std::atomic<int> factory_runs{0};
  std::atomic<int> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto v = cache.get_or_create("cold", [&] {
        factory_runs.fetch_add(1);
        return std::make_shared<int>(7);
      });
      lookups.fetch_add(1);
      EXPECT_EQ(*v, 7);
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(factory_runs.load()));
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(lookups.load()));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(factory_runs.load(), 1);
}

TEST(KernelCache, ClearInvalidatesThreadLocalMemo) {
  tpp::KernelCache<int> cache;
  auto v1 = cache.get_or_create("k", [] { return std::make_shared<int>(1); });
  // Second lookup is served by the per-thread memo.
  auto v2 = cache.get_or_create("k", [] { return std::make_shared<int>(2); });
  EXPECT_EQ(v1.get(), v2.get());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  auto v3 = cache.get_or_create("k", [] { return std::make_shared<int>(3); });
  EXPECT_EQ(*v3, 3);  // memo must not resurrect the cleared kernel
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
}

// --- exception firewall ------------------------------------------------------

TEST(ThreadPoolFirewall, WorkerExceptionRethrownOnDispatcherAndPoolReusable) {
  ThreadPool pool(4);
  struct Ctx {
    std::atomic<int>* ran;
  };
  std::atomic<int> ran{0};
  Ctx ctx{&ran};
  const auto throwing = [](void* c, int tid, int nthreads) {
    (void)nthreads;
    static_cast<Ctx*>(c)->ran->fetch_add(1);
    if (tid == 2) throw RuntimeError(StatusCode::kInternal, "poisoned body");
  };
  try {
    pool.run(throwing, &ctx);
    FAIL() << "worker exception was not rethrown";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
    EXPECT_STREQ(e.what(), "poisoned body");
  }
  // The pool stays fully usable: every member runs the next region.
  ran.store(0);
  pool.run(
      [](void* c, int, int) { static_cast<Ctx*>(c)->ran->fetch_add(1); },
      &ctx);
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolFirewall, DispatcherOwnExceptionRethrown) {
  ThreadPool pool(4);
  try {
    pool.run(
        [](void*, int tid, int) {
          if (tid == 0) throw std::invalid_argument("tid0 threw");
        },
        nullptr);
    FAIL() << "dispatcher exception was not rethrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "tid0 threw");
  }
  std::atomic<int> ran{0};
  pool.run(
      [](void* c, int, int) { static_cast<std::atomic<int>*>(c)->fetch_add(1); },
      &ran);
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolFirewall, ThrowBeforeBarrierDoesNotDeadlock) {
  // One member throws BEFORE a barrier its teammates wait at: without the
  // abort protocol the waiters would spin on an arrival that never comes.
  ThreadPool pool(4, /*pin=*/true, /*partitions=*/2);
  struct Ctx {
    ThreadPool* pool;
    std::atomic<int>* past_barrier;
  };
  std::atomic<int> past_barrier{0};
  Ctx ctx{&pool, &past_barrier};
  EXPECT_THROW(
      pool.run(
          [](void* c, int tid, int) {
            auto* x = static_cast<Ctx*>(c);
            if (tid == 1) {
              throw RuntimeError(StatusCode::kInternal, "pre-barrier");
            }
            x->pool->barrier(tid);
            x->past_barrier->fetch_add(1);
          },
          &ctx),
      RuntimeError);
  // Barrier/dispatch state was reset: a barrier-bearing region completes.
  past_barrier.store(0);
  pool.run(
      [](void* c, int tid, int) {
        auto* x = static_cast<Ctx*>(c);
        x->pool->barrier(tid);
        x->past_barrier->fetch_add(1);
      },
      &ctx);
  EXPECT_EQ(past_barrier.load(), 4);
}

TEST(ThreadPoolFirewall, RunOnRethrowsAndIsolatesPartitions) {
  ThreadPool pool(4, /*pin=*/true, /*partitions=*/2);
  ASSERT_EQ(pool.partitions(), 2);
  // Partition 1 is all pinned workers (the caller only dispatches): the
  // exception still lands on the calling thread.
  EXPECT_THROW(pool.run_on(
                   1,
                   [](void*, int tid, int) {
                     if (tid == 0) {
                       throw RuntimeError(StatusCode::kInternal, "p1 failed");
                     }
                   },
                   nullptr),
               RuntimeError);
  // Both partitions stay serviceable afterwards, including with barriers.
  for (int p = 0; p < 2; ++p) {
    struct Ctx {
      ThreadPool* pool;
      std::atomic<int>* ran;
    };
    std::atomic<int> ran{0};
    Ctx ctx{&pool, &ran};
    pool.run_on(
        p,
        [](void* c, int tid, int) {
          auto* x = static_cast<Ctx*>(c);
          x->pool->barrier(tid);
          x->ran->fetch_add(1);
        },
        &ctx);
    EXPECT_EQ(ran.load(), pool.partition_size(p)) << p;
  }
}

TEST(ThreadPoolFirewall, NestedSerialRegionPropagatesToOuterFirewall) {
  ThreadPool pool(2);
  struct Ctx {
    ThreadPool* pool;
  } ctx{&pool};
  // The nested dispatch degrades to a serial call inside the outer body, so
  // its exception unwinds the outer body on whatever member ran it — and the
  // outer firewall hands it to the dispatcher.
  EXPECT_THROW(pool.run(
                   [](void* c, int tid, int) {
                     if (tid != 1) return;
                     static_cast<Ctx*>(c)->pool->run(
                         [](void*, int, int) {
                           throw RuntimeError(StatusCode::kUnavailable,
                                              "nested");
                         },
                         nullptr);
                   },
                   &ctx),
               RuntimeError);
  std::atomic<int> ran{0};
  pool.run(
      [](void* c, int, int) { static_cast<std::atomic<int>*>(c)->fetch_add(1); },
      &ran);
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolFirewall, ParallelRegionRethrowsUnderEveryRuntime) {
  // Backend-generic contract: the first exception from any member reaches
  // the calling thread (serial: direct; omp: captured + rethrown; pool:
  // abort protocol). No barrier in the body — OpenMP barriers are
  // all-or-none, so barrier interplay is pool-specific (tested above).
  std::atomic<int> attempts{0};
  try {
    parallel_region([&](int tid, int nthreads) {
      attempts.fetch_add(1);
      if (tid == nthreads - 1) {
        throw RuntimeError(StatusCode::kInternal, "region body failed");
      }
    });
    FAIL() << "parallel_region swallowed the exception";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
  }
  EXPECT_GE(attempts.load(), 1);
  // The backend still serves regions afterwards.
  std::atomic<int> ran{0};
  parallel_region([&](int, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), max_threads());
}

}  // namespace
}  // namespace plt
