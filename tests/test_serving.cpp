// Serving-layer tests: MPMC admission queue accounting under producer/
// consumer storms, registry lookup, micro-batch determinism (batched
// execution bitwise-identical to sequential per-request execution),
// deadline/batch-size boundary cases, graceful shutdown with in-flight
// requests, and concurrent mixed-model traffic. Designed to run TSan-clean
// (the CI thread-sanitizer job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/mpmc_queue.hpp"
#include "common/status.hpp"
#include "common/threading.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"
#include "serving/session.hpp"
#include "test_utils.hpp"

namespace plt::serving {
namespace {

MlpServeConfig tiny_mlp() {
  MlpServeConfig c;
  c.features = 32;
  c.layers = 2;
  c.tokens = 8;
  c.bm = c.bn = c.bk = 8;
  return c;
}

dl::BertConfig tiny_bert() {
  dl::BertConfig c;
  c.hidden = 32;
  c.heads = 2;
  c.intermediate = 64;
  c.layers = 1;
  c.seq_len = 8;
  c.batch = 1;
  c.bm = c.bn = c.bk = 8;
  return c;
}

dl::LlmConfig tiny_llm() {
  dl::LlmConfig c;
  c.hidden = 32;
  c.heads = 2;
  c.layers = 1;
  c.ffn = 64;
  c.vocab = 64;
  c.max_seq = 32;
  c.bm = c.bn = c.bk = 8;
  return c;
}

std::vector<float> make_input(const Session& s, std::uint64_t seed) {
  std::vector<float> in(static_cast<std::size_t>(s.input_elems()));
  Xoshiro256 rng(seed);
  fill_uniform(in.data(), in.size(), rng, -1.0f, 1.0f);
  return in;
}

// --- MPMC queue -------------------------------------------------------------

TEST(MpmcQueue, FifoWithinSingleProducer) {
  common::MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(MpmcQueue, FullQueueRejectsPush) {
  common::MpmcQueue<int> q(4);  // rounded to capacity 4
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  int v = -1;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(99));  // slot freed
}

TEST(MpmcQueue, StormAccountsEveryItem) {
  // N producers push disjoint ranges, M consumers drain: every value must
  // arrive exactly once (sum check) with no loss under contention.
  constexpr int kProducers = 4, kConsumers = 3, kPerProducer = 2000;
  common::MpmcQueue<std::int64_t> q(64);
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};
  constexpr int kTotal = kProducers * kPerProducer;

  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::int64_t v;
      while (popped.load(std::memory_order_acquire) < kTotal) {
        if (q.try_pop(v)) {
          sum.fetch_add(v, std::memory_order_relaxed);
          popped.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(p) * kPerProducer + i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(),
            static_cast<std::int64_t>(kTotal) * (kTotal - 1) / 2);
}

// --- registry ---------------------------------------------------------------

TEST(ModelRegistry, AddAndFind) {
  ModelRegistry reg;
  auto mlp = make_mlp_session("mlp_reg", tiny_mlp(), /*lanes=*/2, 7);
  reg.add(mlp);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find("mlp_reg"), mlp);
  EXPECT_EQ(reg.find("nope"), nullptr);
  EXPECT_THROW(reg.add(make_mlp_session("mlp_reg", tiny_mlp(), 1, 7)),
               std::invalid_argument);
}

// --- sessions ---------------------------------------------------------------

TEST(Session, LanesAreBitwiseIdenticalReplicas) {
  auto s = make_mlp_session("mlp_lanes", tiny_mlp(), /*lanes=*/3, 21);
  const auto in = make_input(*s, 5);
  std::vector<std::vector<float>> outs;
  for (int lane = 0; lane < s->lanes(); ++lane) {
    std::vector<float> out(static_cast<std::size_t>(s->output_elems()));
    s->run(lane, in.data(), out.data());
    outs.push_back(std::move(out));
  }
  for (int lane = 1; lane < s->lanes(); ++lane) {
    EXPECT_EQ(0, std::memcmp(outs[0].data(),
                             outs[static_cast<std::size_t>(lane)].data(),
                             outs[0].size() * sizeof(float)))
        << "lane " << lane;
  }
}

// One decode run_step is one team region on the pool: every layer's nests
// run collectively inside it. Inside an enclosing width-1 region the step
// degrades to the caller alone, opens no team region, and computes the same
// bits.
TEST(Session, LlmDecodeStepIsOneTeamRegion) {
  const Runtime saved = runtime();
  set_runtime(Runtime::kPool);
  dl::LlmConfig cfg = tiny_llm();
  cfg.layers = 2;
  auto s = make_llm_session("llm_region", cfg, /*prompt_len=*/4,
                            /*gen_tokens=*/3, /*lanes=*/1, 71);
  const auto in = make_input(*s, 72);
  const std::size_t n = static_cast<std::size_t>(s->output_elems());
  std::vector<float> top(n), nested(n);
  ThreadPool& pool = ThreadPool::instance();

  s->run_step(0, in.data(), top.data(), 0, 1);
  const std::uint64_t before = pool.stats().team_regions;
  s->run_step(0, in.data(), top.data(), 1, 1);
  EXPECT_EQ(pool.stats().team_regions - before, 1u);

  parallel_region(
      [&](int, int) {
        s->run_step(0, in.data(), nested.data(), 0, 1);
        const std::uint64_t inside = pool.stats().team_regions;
        s->run_step(0, in.data(), nested.data(), 1, 1);
        EXPECT_EQ(pool.stats().team_regions - inside, 0u);
      },
      1);
  const std::size_t two_tokens = static_cast<std::size_t>(2 * cfg.hidden);
  EXPECT_EQ(0, std::memcmp(top.data(), nested.data(),
                           two_tokens * sizeof(float)));
  set_runtime(saved);
}

// --- scheduler: determinism -------------------------------------------------

// Batched execution must be bitwise-identical to sequential per-request
// execution for every model family the serving layer hosts.
TEST(Scheduler, BatchedMatchesSequentialBitwise) {
  std::vector<std::shared_ptr<Session>> sessions = {
      make_mlp_session("mlp_det", tiny_mlp(), /*lanes=*/4, 11),
      make_bert_session("bert_det", tiny_bert(), /*lanes=*/4, 12),
      make_llm_session("llm_det", tiny_llm(), /*prompt=*/4, /*gen=*/2,
                       /*lanes=*/4, 13),
  };
  constexpr int kPerModel = 8;

  for (auto& s : sessions) {
    std::vector<std::vector<float>> ins, want, got;
    for (int i = 0; i < kPerModel; ++i) {
      ins.push_back(make_input(*s, 100 + static_cast<std::uint64_t>(i)));
      want.emplace_back(static_cast<std::size_t>(s->output_elems()));
      got.emplace_back(static_cast<std::size_t>(s->output_elems()));
    }
    // Sequential reference: one request at a time, lane 0, parallel nests.
    for (int i = 0; i < kPerModel; ++i) {
      s->run(0, ins[static_cast<std::size_t>(i)].data(),
             want[static_cast<std::size_t>(i)].data());
    }

    SchedulerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_usecs = 1000;
    RequestScheduler sched(cfg);
    std::vector<RequestHandle> handles;
    for (int i = 0; i < kPerModel; ++i) {
      handles.push_back(sched.submit(s, ins[static_cast<std::size_t>(i)].data(),
                                     got[static_cast<std::size_t>(i)].data()));
    }
    for (auto& h : handles) {
      ASSERT_TRUE(h.ok());
      h.wait();
      EXPECT_TRUE(h.done());
      EXPECT_GT(h.latency_us(), 0.0);
    }
    for (int i = 0; i < kPerModel; ++i) {
      EXPECT_EQ(0, std::memcmp(want[static_cast<std::size_t>(i)].data(),
                               got[static_cast<std::size_t>(i)].data(),
                               want[static_cast<std::size_t>(i)].size() *
                                   sizeof(float)))
          << s->name() << " request " << i;
    }
  }
}

// --- scheduler: batching boundaries -----------------------------------------

TEST(Scheduler, MaxBatchOneDegradesToSequentialServing) {
  auto s = make_mlp_session("mlp_b1", tiny_mlp(), /*lanes=*/2, 31);
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  RequestScheduler sched(cfg);
  const auto in = make_input(*s, 3);
  std::vector<float> want(static_cast<std::size_t>(s->output_elems()));
  s->run(0, in.data(), want.data());
  for (int i = 0; i < 6; ++i) {
    std::vector<float> out(static_cast<std::size_t>(s->output_elems()));
    auto h = sched.submit(s, in.data(), out.data());
    h.wait();
    EXPECT_EQ(0, std::memcmp(want.data(), out.data(),
                             want.size() * sizeof(float)));
  }
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 6u);
  EXPECT_EQ(stats[0].batches, 6u);  // every batch has exactly one request
}

TEST(Scheduler, ZeroDeadlineFlushesImmediately) {
  auto s = make_mlp_session("mlp_dl0", tiny_mlp(), /*lanes=*/4, 32);
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 0;  // a partial batch never waits
  RequestScheduler sched(cfg);
  const auto in = make_input(*s, 4);
  std::vector<float> out(static_cast<std::size_t>(s->output_elems()));
  auto h = sched.submit(s, in.data(), out.data());
  h.wait();  // must complete without three more requests arriving
  EXPECT_TRUE(h.done());
}

TEST(Scheduler, BatchNeverExceedsSessionLanes) {
  auto s = make_mlp_session("mlp_lim", tiny_mlp(), /*lanes=*/2, 33);
  SchedulerConfig cfg;
  cfg.max_batch = 16;  // more than the session can run concurrently
  cfg.batch_usecs = 500;
  RequestScheduler sched(cfg);
  const auto in = make_input(*s, 5);
  constexpr int kReqs = 12;
  std::vector<std::vector<float>> outs(
      kReqs, std::vector<float>(static_cast<std::size_t>(s->output_elems())));
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    handles.push_back(
        sched.submit(s, in.data(), outs[static_cast<std::size_t>(i)].data()));
  }
  for (auto& h : handles) h.wait();
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, static_cast<std::uint64_t>(kReqs));
  EXPECT_LE(stats[0].mean_batch(), 2.0);  // clamped to lanes()
}

TEST(Scheduler, TinyQueueAppliesBackpressureWithoutLoss) {
  auto s = make_mlp_session("mlp_bp", tiny_mlp(), /*lanes=*/2, 34);
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 0;
  cfg.queue_capacity = 2;  // submit must block-and-retry, never drop
  RequestScheduler sched(cfg);
  const auto in = make_input(*s, 6);
  constexpr int kReqs = 32;
  std::vector<std::vector<float>> outs(
      kReqs, std::vector<float>(static_cast<std::size_t>(s->output_elems())));
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    handles.push_back(
        sched.submit(s, in.data(), outs[static_cast<std::size_t>(i)].data()));
  }
  for (auto& h : handles) {
    h.wait();
    EXPECT_TRUE(h.done());
  }
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, static_cast<std::uint64_t>(kReqs));
}

// --- scheduler: shutdown ----------------------------------------------------

TEST(Scheduler, GracefulShutdownDrainsInFlightRequests) {
  auto s = make_mlp_session("mlp_shut", tiny_mlp(), /*lanes=*/4, 35);
  const auto in = make_input(*s, 7);
  std::vector<float> want(static_cast<std::size_t>(s->output_elems()));
  s->run(0, in.data(), want.data());

  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 50000;  // long deadline: shutdown must not wait it out
  RequestScheduler sched(cfg);
  constexpr int kReqs = 10;
  std::vector<std::vector<float>> outs(
      kReqs, std::vector<float>(static_cast<std::size_t>(s->output_elems())));
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    handles.push_back(
        sched.submit(s, in.data(), outs[static_cast<std::size_t>(i)].data()));
  }
  sched.shutdown();  // every accepted request must have completed
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_TRUE(handles[static_cast<std::size_t>(i)].done());
    EXPECT_EQ(0, std::memcmp(want.data(),
                             outs[static_cast<std::size_t>(i)].data(),
                             want.size() * sizeof(float)));
  }
  // Admission is closed after shutdown.
  std::vector<float> out(static_cast<std::size_t>(s->output_elems()));
  auto rejected = sched.submit(s, in.data(), out.data());
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.done());  // a rejected handle is trivially done
}

// --- scheduler: sharded layout ----------------------------------------------

// The sharded scheduler (one queue + dispatcher per shard, pinned sessions,
// idle-shard stealing) must produce results bitwise-identical to both the
// single-queue scheduler and sequential execution — on any machine, any
// partition count (shards above the partition count share sub-teams via the
// documented run_on busy-degradation).
TEST(Scheduler, ShardedMatchesSingleQueueBitwise) {
  std::vector<std::shared_ptr<Session>> sessions = {
      make_mlp_session("mlp_sh", tiny_mlp(), /*lanes=*/4, 61),
      make_bert_session("bert_sh", tiny_bert(), /*lanes=*/4, 62),
      make_llm_session("llm_sh", tiny_llm(), 4, 2, /*lanes=*/4, 63),
  };
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    sessions[m]->pin_partition(static_cast<int>(m));
  }
  constexpr int kPerModel = 8;

  // Sequential reference.
  std::vector<std::vector<std::vector<float>>> ins(sessions.size());
  std::vector<std::vector<std::vector<float>>> want(sessions.size());
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    for (int i = 0; i < kPerModel; ++i) {
      ins[m].push_back(
          make_input(*sessions[m], 200 + static_cast<std::uint64_t>(i)));
      want[m].emplace_back(
          static_cast<std::size_t>(sessions[m]->output_elems()));
      sessions[m]->run(0, ins[m].back().data(), want[m].back().data());
    }
  }

  for (const int shards : {1, 3}) {
    SchedulerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_usecs = 200;
    cfg.shards = shards;
    RequestScheduler sched(cfg);
    EXPECT_EQ(sched.shard_count(), shards);
    std::vector<std::vector<std::vector<float>>> got(sessions.size());
    std::vector<RequestHandle> handles;
    for (std::size_t m = 0; m < sessions.size(); ++m) {
      for (int i = 0; i < kPerModel; ++i) {
        got[m].emplace_back(
            static_cast<std::size_t>(sessions[m]->output_elems()));
        handles.push_back(sched.submit(sessions[m],
                                       ins[m][static_cast<std::size_t>(i)].data(),
                                       got[m].back().data()));
      }
    }
    for (auto& h : handles) {
      ASSERT_TRUE(h.ok());
      h.wait();
    }
    for (std::size_t m = 0; m < sessions.size(); ++m) {
      for (int i = 0; i < kPerModel; ++i) {
        EXPECT_EQ(0,
                  std::memcmp(want[m][static_cast<std::size_t>(i)].data(),
                              got[m][static_cast<std::size_t>(i)].data(),
                              want[m][static_cast<std::size_t>(i)].size() *
                                  sizeof(float)))
            << sessions[m]->name() << " request " << i << " shards " << shards;
      }
    }
    std::uint64_t total = 0;
    for (const auto& st : sched.stats()) total += st.requests;
    EXPECT_EQ(total,
              static_cast<std::uint64_t>(sessions.size()) * kPerModel);
  }
}

TEST(Scheduler, StealingDrainsABackloggedSiblingCorrectly) {
  // Every session pinned to shard 0: shard 1 has an empty queue and may
  // only serve by stealing. All requests must complete bitwise-correct no
  // matter which shard executed them (lanes are identical replicas).
  auto s = make_mlp_session("mlp_steal", tiny_mlp(), /*lanes=*/2, 71);
  s->pin_partition(0);
  const auto in = make_input(*s, 9);
  std::vector<float> want(static_cast<std::size_t>(s->output_elems()));
  s->run(0, in.data(), want.data());

  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 0;
  cfg.shards = 2;
  cfg.steal = true;
  RequestScheduler sched(cfg);
  constexpr int kReqs = 48;
  std::vector<std::vector<float>> outs(
      kReqs, std::vector<float>(static_cast<std::size_t>(s->output_elems())));
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kReqs; ++i) {
    handles.push_back(
        sched.submit(s, in.data(), outs[static_cast<std::size_t>(i)].data()));
  }
  for (auto& h : handles) h.wait();
  for (int i = 0; i < kReqs; ++i) {
    EXPECT_EQ(0, std::memcmp(want.data(),
                             outs[static_cast<std::size_t>(i)].data(),
                             want.size() * sizeof(float)))
        << "request " << i;
  }
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, static_cast<std::uint64_t>(kReqs));
  // Stolen work is bounded by what existed; shard 0 never steals (its own
  // queue holds everything). Stealing itself is timing-dependent, so only
  // the invariants are asserted, not a minimum count.
  EXPECT_EQ(sched.steals(0), 0u);
  EXPECT_LE(sched.steals(1), static_cast<std::uint64_t>(kReqs));
  sched.shutdown();
  test::expect_all_lanes_free(*s);
}

TEST(Scheduler, DisabledStealingKeepsWorkOnTheHomeShard) {
  auto s = make_mlp_session("mlp_nosteal", tiny_mlp(), /*lanes=*/2, 72);
  s->pin_partition(0);
  const auto in = make_input(*s, 10);
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 0;
  cfg.shards = 2;
  cfg.steal = false;
  RequestScheduler sched(cfg);
  std::vector<float> out(static_cast<std::size_t>(s->output_elems()));
  for (int i = 0; i < 8; ++i) {
    auto h = sched.submit(s, in.data(), out.data());
    h.wait();
  }
  EXPECT_EQ(sched.steals(0), 0u);
  EXPECT_EQ(sched.steals(1), 0u);
}

TEST(Session, PinPartitionIsStickyAndFirstWins) {
  auto s = make_mlp_session("mlp_pin", tiny_mlp(), /*lanes=*/1, 73);
  EXPECT_EQ(s->partition(), -1);
  // The CAS path stores the raw routing hint (the scheduler normalizes its
  // own inputs); executors wrap it modulo the real partition count.
  EXPECT_EQ(s->pin_partition_if_unpinned(2), 2);
  EXPECT_EQ(s->pin_partition_if_unpinned(5), 2);  // already pinned: kept
  // The explicit pin stores the raw routing hint too — the shard-homing
  // domain may exceed the pool partition count (watchdog failover re-homes
  // sessions across shards even on a 1-partition pool); only the warmup
  // itself wraps to a real partition.
  s->pin_partition(1);
  EXPECT_EQ(s->partition(), 1);
}

TEST(ModelRegistry, RegistrationPinsSessionsToPartitions) {
  ModelRegistry reg;
  auto a = make_mlp_session("mlp_rr_a", tiny_mlp(), 1, 81);
  auto b = make_mlp_session("mlp_rr_b", tiny_mlp(), 1, 82);
  auto c = make_mlp_session("mlp_rr_c", tiny_mlp(), 1, 83);
  reg.add(a);               // round-robin
  reg.add(b);               // round-robin
  reg.add(c, /*partition=*/0);  // explicit
  const int nparts = pool_partitions();
  EXPECT_EQ(a->partition(), 0 % nparts);
  EXPECT_EQ(b->partition(), 1 % nparts);
  EXPECT_EQ(c->partition(), 0);
}

// --- scheduler: concurrent mixed traffic -------------------------------------

TEST(Scheduler, ConcurrentProducersAcrossModels) {
  // N producer threads x M models, all in flight at once; every request
  // must complete with the bitwise-correct result. This is the test the CI
  // ThreadSanitizer job leans on.
  std::vector<std::shared_ptr<Session>> sessions = {
      make_mlp_session("mlp_mix", tiny_mlp(), /*lanes=*/4, 41),
      make_bert_session("bert_mix", tiny_bert(), /*lanes=*/4, 42),
      make_llm_session("llm_mix", tiny_llm(), 4, 2, /*lanes=*/4, 43),
  };
  constexpr int kProducers = 4, kPerProducer = 12;

  // Reference outputs for one shared input per model.
  std::vector<std::vector<float>> ins, want;
  for (auto& s : sessions) {
    ins.push_back(make_input(*s, 50));
    want.emplace_back(static_cast<std::size_t>(s->output_elems()));
    s->run(0, ins.back().data(), want.back().data());
  }

  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 200;
  RequestScheduler sched(cfg);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t m =
            static_cast<std::size_t>(p + i) % sessions.size();
        std::vector<float> out(
            static_cast<std::size_t>(sessions[m]->output_elems()));
        auto h = sched.submit(sessions[m], ins[m].data(), out.data());
        ASSERT_TRUE(h.ok());
        h.wait();
        if (std::memcmp(want[m].data(), out.data(),
                        want[m].size() * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  std::uint64_t total = 0;
  for (const auto& st : sched.stats()) {
    total += st.requests;
    EXPECT_GE(st.pending_highwater, 1u);
    EXPECT_GT(st.mean_latency_us(), 0.0);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GE(sched.queue_depth_highwater(), 1u);
}

// --- failure semantics: firewalls, quarantine, deadlines, shedding ----------

namespace fault = plt::common::fault;

// Scripted model: 4-elem passthrough (out = 2 * in) that can be told to
// throw. No kernels, no warmup — failure-path tests stay fast and exact.
class ScriptedSession final : public Session {
 public:
  ScriptedSession(const std::string& name, int lanes)
      : Session(name, lanes, /*input_elems=*/4, /*output_elems=*/4,
                /*flops=*/1.0) {}

  std::atomic<bool> fail{false};
  std::atomic<int> runs{0};

  void run(int, const float* in, float* out) override {
    runs.fetch_add(1);
    if (fail.load()) {
      throw RuntimeError(StatusCode::kInternal, "scripted failure");
    }
    for (int i = 0; i < 4; ++i) out[i] = 2.0f * in[i];
  }
};

// Blocks inside run() until released: parks the dispatcher mid-batch so
// tests can deterministically stack work up behind it.
class BlockingSession final : public Session {
 public:
  explicit BlockingSession(const std::string& name)
      : Session(name, /*lanes=*/1, 4, 4, 1.0) {}

  std::atomic<bool> entered{false};

  void run(int, const float*, float*) override {
    entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return released_; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> g(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  void await_entered() {
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(SchedulerFailure, PoisonedRequestFailsAloneAndQuarantines) {
  auto bad = std::make_shared<ScriptedSession>("scripted_bad", 4);
  auto good = std::make_shared<ScriptedSession>("scripted_good", 4);
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 200;
  cfg.shards = 1;
  cfg.quarantine = true;
  RequestScheduler sched(cfg);

  const float in[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  float out_bad[4] = {0};
  float out_good[4] = {0};

  bad->fail.store(true);
  auto h_bad = sched.submit(bad, in, out_bad);
  auto h_good = sched.submit(good, in, out_good);
  ASSERT_TRUE(h_bad.ok());
  ASSERT_TRUE(h_good.ok());
  h_bad.wait();
  h_good.wait();

  // The poisoned request fails its OWN handle; the other session's request
  // (in flight at the same time) completes normally.
  EXPECT_EQ(h_bad.status().code(), StatusCode::kInternal);
  EXPECT_NE(h_bad.status().message().find("scripted failure"),
            std::string::npos);
  EXPECT_TRUE(h_good.status().ok());
  EXPECT_EQ(out_good[2], 6.0f);

  // The faulted session is quarantined: unhealthy, and new submits are
  // rejected kUnavailable without executing anything.
  EXPECT_FALSE(bad->healthy());
  EXPECT_TRUE(good->healthy());
  bad->fail.store(false);
  const int runs_before = bad->runs.load();
  auto h_rej = sched.submit(bad, in, out_bad);
  EXPECT_FALSE(h_rej.ok());
  EXPECT_TRUE(h_rej.done());
  EXPECT_EQ(h_rej.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(h_rej.status().message().find("quarantined"), std::string::npos);
  EXPECT_EQ(bad->runs.load(), runs_before);

  // The healthy session keeps serving, and mark_healthy re-admits.
  auto h2 = sched.submit(good, in, out_good);
  h2.wait();
  EXPECT_TRUE(h2.status().ok());
  bad->mark_healthy();
  auto h3 = sched.submit(bad, in, out_bad);
  ASSERT_TRUE(h3.ok());
  h3.wait();
  EXPECT_TRUE(h3.status().ok());
  EXPECT_EQ(out_bad[3], 8.0f);

  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, 5u);
  EXPECT_EQ(c.completed, 3u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
  // Per-model split mirrors the scheduler-wide counters.
  for (const auto& st : sched.stats()) {
    if (st.model == "scripted_bad") {
      EXPECT_EQ(st.requests, 1u);
      EXPECT_EQ(st.failed, 1u);
      EXPECT_EQ(st.rejected, 1u);
    }
  }
}

TEST(SchedulerFailure, QuarantineOffKeepsServingAFaultySession) {
  auto s = std::make_shared<ScriptedSession>("scripted_noq", 2);
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.quarantine = false;
  RequestScheduler sched(cfg);
  const float in[4] = {1, 1, 1, 1};
  float out[4];
  s->fail.store(true);
  auto h1 = sched.submit(s, in, out);
  h1.wait();
  EXPECT_EQ(h1.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(s->healthy());  // quarantine disabled: health untouched
  s->fail.store(false);
  auto h2 = sched.submit(s, in, out);
  ASSERT_TRUE(h2.ok());
  h2.wait();
  EXPECT_TRUE(h2.status().ok());
}

TEST(SchedulerDeadline, QueuedRequestExpiresWithoutExecuting) {
  auto blocker = std::make_shared<BlockingSession>("blocker_dl");
  auto victim = std::make_shared<ScriptedSession>("victim_dl", 2);
  SchedulerConfig cfg;
  cfg.max_batch = 1;  // the blocker flushes (and blocks) immediately
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  cfg.steal = false;
  RequestScheduler sched(cfg);

  const float in[4] = {1, 2, 3, 4};
  float out_b[4];
  float out_v[4] = {-7.0f, -7.0f, -7.0f, -7.0f};
  auto h_block = sched.submit(blocker, in, out_b);
  ASSERT_TRUE(h_block.ok());
  blocker->await_entered();  // dispatcher is now stuck mid-batch

  SubmitOptions opts;
  opts.deadline_usecs = 1000;  // 1 ms, guaranteed to pass while queued
  auto h_victim = sched.submit(victim, in, out_v);
  auto h_dead = sched.submit(victim, in, out_v, opts);
  ASSERT_TRUE(h_dead.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker->release();
  h_dead.wait();
  h_victim.wait();

  // The expired request resolved kDeadlineExceeded WITHOUT running: its
  // output sentinel is untouched (the no-deadline sibling did run).
  EXPECT_EQ(h_dead.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(h_victim.status().ok());
  EXPECT_EQ(out_v[0], 2.0f);
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, 3u);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.completed, 2u);
}

TEST(SchedulerDeadline, PendingPartialBatchExpiresPromptly) {
  // One request in a partial batch (max_batch 4) with a huge batching
  // window: the dispatcher's sleep must wake at the REQUEST deadline, not
  // the batch deadline.
  auto s = std::make_shared<ScriptedSession>("victim_wake", 4);
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 10000000;  // 10 s batching window
  cfg.shards = 1;
  RequestScheduler sched(cfg);
  const float in[4] = {1, 2, 3, 4};
  float out[4] = {-7.0f, -7.0f, -7.0f, -7.0f};
  SubmitOptions opts;
  opts.deadline_usecs = 20000;  // 20 ms
  const auto t0 = std::chrono::steady_clock::now();
  auto h = sched.submit(s, in, out, opts);
  ASSERT_TRUE(h.ok());
  h.wait();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(h.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(out[0], -7.0f);      // never executed
  EXPECT_LT(waited_ms, 5000.0);  // resolved at ~20 ms, not the 10 s window
  EXPECT_EQ(s->runs.load(), 0);
}

TEST(SchedulerShedding, SaturatedQueueShedsPastDeadlineSubmit) {
  auto blocker = std::make_shared<BlockingSession>("blocker_shed");
  auto s = std::make_shared<ScriptedSession>("victim_shed", 2);
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.queue_capacity = 2;
  cfg.shards = 1;
  cfg.steal = false;
  RequestScheduler sched(cfg);
  const float in[4] = {1, 1, 1, 1};
  float out[4];
  auto h_block = sched.submit(blocker, in, out);
  blocker->await_entered();
  // Fill the admission queue while the dispatcher is stuck.
  std::vector<RequestHandle> queued;
  float outs[2][4];
  queued.push_back(sched.submit(s, in, outs[0]));
  queued.push_back(sched.submit(s, in, outs[1]));
  // Saturated queue + deadline that lapses while blocked: shed, newest first
  // — the queued requests are untouched.
  SubmitOptions opts;
  opts.deadline_usecs = 1000;
  float out_shed[4] = {-7.0f, -7.0f, -7.0f, -7.0f};
  auto h_shed = sched.submit(s, in, out_shed, opts);
  EXPECT_FALSE(h_shed.ok());
  EXPECT_TRUE(h_shed.done());
  EXPECT_EQ(h_shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out_shed[0], -7.0f);
  blocker->release();
  for (auto& h : queued) {
    h.wait();
    EXPECT_TRUE(h.status().ok());
  }
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

TEST(SchedulerShedding, SubmitTimeoutShedsWithoutADeadline) {
  auto blocker = std::make_shared<BlockingSession>("blocker_to");
  auto s = std::make_shared<ScriptedSession>("victim_to", 2);
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.queue_capacity = 2;
  cfg.shards = 1;
  cfg.steal = false;
  cfg.submit_timeout_usecs = 2000;  // 2 ms bound on submit blocking
  RequestScheduler sched(cfg);
  const float in[4] = {1, 1, 1, 1};
  float out[4];
  auto h_block = sched.submit(blocker, in, out);
  blocker->await_entered();
  float outs[2][4];
  std::vector<RequestHandle> queued;
  queued.push_back(sched.submit(s, in, outs[0]));
  queued.push_back(sched.submit(s, in, outs[1]));
  auto h_shed = sched.submit(s, in, out);  // no deadline: timeout governs
  EXPECT_FALSE(h_shed.ok());
  EXPECT_EQ(h_shed.status().code(), StatusCode::kResourceExhausted);
  blocker->release();
  for (auto& h : queued) h.wait();
  sched.shutdown();
}

TEST(SchedulerShutdown, RejectedHandleCarriesUnavailable) {
  auto s = std::make_shared<ScriptedSession>("scripted_rej", 1);
  RequestScheduler sched{SchedulerConfig{}};
  sched.shutdown();
  const float in[4] = {0, 0, 0, 0};
  float out[4];
  auto h = sched.submit(s, in, out);
  EXPECT_FALSE(h.ok());
  EXPECT_TRUE(h.done());
  EXPECT_EQ(h.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(s->runs.load(), 0);
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(c.rejected, 1u);
}

TEST(SchedulerShutdown, DestructorWithQueuedRequestsResolvesEveryHandle) {
  auto s = std::make_shared<ScriptedSession>("scripted_dtor", 2);
  const float in[4] = {1, 2, 3, 4};
  constexpr int kReqs = 24;
  float outs[kReqs][4];
  std::vector<RequestHandle> handles;
  {
    SchedulerConfig cfg;
    cfg.max_batch = 2;
    cfg.batch_usecs = 1000;
    RequestScheduler sched(cfg);
    for (int i = 0; i < kReqs; ++i) {
      handles.push_back(sched.submit(s, in, outs[i]));
    }
    // Destructor implies shutdown(): drains the queue, completes everything.
  }
  for (auto& h : handles) {
    EXPECT_TRUE(h.done());
    EXPECT_TRUE(h.status().ok());
  }
  EXPECT_EQ(s->runs.load(), kReqs);
}

TEST(SchedulerShutdown, SubmitRacingShutdownResolvesEveryHandleExactlyOnce) {
  auto s = std::make_shared<ScriptedSession>("scripted_race", 4);
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 0;
  RequestScheduler sched(cfg);
  constexpr int kProducers = 4, kPerProducer = 50;
  const float in[4] = {1, 1, 1, 1};
  // One output per request: batch-mates run concurrently and must not share
  // a buffer (rejected requests never write theirs).
  static float sink[kProducers][kPerProducer][4];
  std::vector<std::vector<RequestHandle>> handles(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        handles[static_cast<std::size_t>(p)].push_back(
            sched.submit(s, in, sink[p][i]));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  sched.shutdown();  // races the producers mid-submit
  for (auto& t : producers) t.join();

  std::uint64_t ok = 0, rejected = 0;
  for (auto& per : handles) {
    for (auto& h : per) {
      h.wait();
      EXPECT_TRUE(h.done());
      if (h.status().ok()) {
        ++ok;
        EXPECT_TRUE(h.ok());
      } else {
        ++rejected;
        EXPECT_EQ(h.status().code(), StatusCode::kUnavailable);
        EXPECT_FALSE(h.ok());
      }
    }
  }
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(c.completed, ok);
  EXPECT_EQ(c.rejected, rejected);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// --- registry: status lookup + quarantine ------------------------------------

TEST(ModelRegistry, LookupReturnsStatusAndQuarantineMarks) {
  ModelRegistry reg;
  auto s = make_mlp_session("mlp_lookup", tiny_mlp(), 1, 91);
  reg.add(s);

  auto found = reg.lookup("mlp_lookup");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), s);

  auto missing = reg.lookup("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(missing.value_or(nullptr), nullptr);

  EXPECT_EQ(reg.healthy_count(), 1u);
  EXPECT_EQ(reg.quarantine("nope", "x").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.quarantine("mlp_lookup", "operator pulled it").ok());
  EXPECT_FALSE(s->healthy());
  EXPECT_EQ(s->health_reason(), "operator pulled it");
  EXPECT_EQ(reg.healthy_count(), 0u);
  // Quarantined sessions still resolve: callers decide on health.
  EXPECT_TRUE(reg.lookup("mlp_lookup").ok());
  s->mark_healthy();
  EXPECT_EQ(reg.healthy_count(), 1u);
}

TEST(ModelRegistry, LookupFaultSiteReportsUnavailable) {
  ModelRegistry reg;
  reg.add(make_mlp_session("mlp_flt", tiny_mlp(), 1, 92));
  fault::configure("registry_lookup:fail:1.0", 3);
  auto r = reg.lookup("mlp_flt");
  fault::reset();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(reg.lookup("mlp_flt").ok());  // disarmed: resolves again
}

// --- chaos: the ISSUE acceptance scenario ------------------------------------

// >= 1000 mixed-model requests on 2 shards with kernel faults injected at a
// seeded rate. The process must never terminate, every handle must resolve
// to exactly one terminal status, the terminal counters must account for
// every submit exactly, and every OK output must be bitwise-identical to the
// fault-free reference. Spec/seed are overridable from the environment (the
// CI chaos job varies them); sessions are built BEFORE arming so
// construction never draws chaos events.
TEST(SchedulerChaos, InjectedKernelFaultsNeverCrashAndAccountExactly) {
  fault::reset();  // construction below must not draw env-armed events
  std::vector<std::shared_ptr<Session>> sessions = {
      make_mlp_session("mlp_chaos", tiny_mlp(), /*lanes=*/4, 311),
      make_bert_session("bert_chaos", tiny_bert(), /*lanes=*/4, 312),
  };
  sessions[0]->pin_partition(0);
  sessions[1]->pin_partition(1);
  constexpr int kPerModel = 520;  // 1040 total
  constexpr int kInputs = 8;      // distinct inputs, cycled

  // Fault-free references.
  std::vector<std::vector<std::vector<float>>> ins(sessions.size());
  std::vector<std::vector<std::vector<float>>> want(sessions.size());
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    for (int i = 0; i < kInputs; ++i) {
      ins[m].push_back(
          make_input(*sessions[m], 900 + static_cast<std::uint64_t>(i)));
      want[m].emplace_back(
          static_cast<std::size_t>(sessions[m]->output_elems()));
      sessions[m]->run(0, ins[m].back().data(), want[m].back().data());
    }
  }

  const std::string spec =
      common::env_str("PLT_FAULT_SPEC", "kernel_exec:throw:0.05");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(common::env_int("PLT_FAULT_SEED", 7));
  fault::configure(spec, seed);

  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 200;
  cfg.shards = 2;
  cfg.quarantine = false;  // keep faulted sessions serving: rate, not gate
  {
    RequestScheduler sched(cfg);
    std::vector<RequestHandle> handles;
    std::vector<std::vector<float>> outs;
    std::vector<std::pair<std::size_t, int>> tags;  // (model, input index)
    outs.reserve(sessions.size() * kPerModel);
    for (int i = 0; i < kPerModel; ++i) {
      for (std::size_t m = 0; m < sessions.size(); ++m) {
        outs.emplace_back(
            static_cast<std::size_t>(sessions[m]->output_elems()));
        tags.emplace_back(m, i % kInputs);
        handles.push_back(sched.submit(sessions[m],
                                       ins[m][tags.back().second].data(),
                                       outs.back().data()));
      }
    }
    std::uint64_t ok = 0, failed = 0;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i].wait();
      ASSERT_TRUE(handles[i].done());
      const Status st = handles[i].status();
      if (st.ok()) {
        ++ok;
        const auto [m, k] = tags[i];
        ASSERT_EQ(0, std::memcmp(want[m][static_cast<std::size_t>(k)].data(),
                                 outs[i].data(),
                                 outs[i].size() * sizeof(float)))
            << sessions[m]->name() << " request " << i
            << " (OK output diverged from the fault-free reference)";
      } else {
        ++failed;
        EXPECT_EQ(st.code(), StatusCode::kInternal) << st.to_string();
        EXPECT_NE(st.message().find("injected fault"), std::string::npos);
      }
    }
    fault::reset();
    sched.shutdown();
    const auto c = sched.counters();
    EXPECT_EQ(c.submitted, handles.size());
    EXPECT_EQ(c.completed, ok);
    EXPECT_EQ(c.failed, failed);
    EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
              c.submitted);
    // With the default 5% spec some faults should actually have fired; a
    // custom env spec may legitimately produce zero (e.g. queue_push only).
    if (spec == "kernel_exec:throw:0.05") {
      EXPECT_GT(failed, 0u);
      EXPECT_LT(failed, handles.size() / 4);
    }
  }
  fault::reset();
}

TEST(SchedulerChaos, QuarantineIsolatesFaultedSessionAndRecovers) {
  fault::reset();
  auto victim = make_mlp_session("mlp_chaos_q", tiny_mlp(), /*lanes=*/2, 313);
  auto bystander = std::make_shared<ScriptedSession>("scripted_chaos_q", 2);
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.quarantine = true;
  RequestScheduler sched(cfg);

  const auto in = make_input(*victim, 77);
  std::vector<float> out(static_cast<std::size_t>(victim->output_elems()));
  const float sin[4] = {1, 1, 1, 1};
  float sout[4];

  fault::configure("kernel_exec:throw:1.0", 1);
  auto h = sched.submit(victim, in.data(), out.data());
  ASSERT_TRUE(h.ok());
  h.wait();
  fault::reset();
  EXPECT_EQ(h.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(victim->healthy());

  // Victim rejected; the bystander session is untouched by the quarantine.
  auto h_rej = sched.submit(victim, in.data(), out.data());
  EXPECT_EQ(h_rej.status().code(), StatusCode::kUnavailable);
  auto h_by = sched.submit(bystander, sin, sout);
  h_by.wait();
  EXPECT_TRUE(h_by.status().ok());

  // Recovery: the lanes are stateless, so re-admission serves correctly.
  victim->mark_healthy();
  std::vector<float> want(static_cast<std::size_t>(victim->output_elems()));
  victim->run(0, in.data(), want.data());
  auto h_ok = sched.submit(victim, in.data(), out.data());
  ASSERT_TRUE(h_ok.ok());
  h_ok.wait();
  ASSERT_TRUE(h_ok.status().ok());
  EXPECT_EQ(0, std::memcmp(want.data(), out.data(),
                           want.size() * sizeof(float)));
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// --- typed submit API + handle contract ---------------------------------------

TEST(TypedSubmit, RequestAndLegacyShimAgree) {
  auto mlp = make_mlp_session("mlp_typed", tiny_mlp(), /*lanes=*/2, 21);
  SchedulerConfig cfg;
  cfg.shards = 1;
  RequestScheduler sched(cfg);

  const auto in = make_input(*mlp, 5);
  std::vector<float> out_new(static_cast<std::size_t>(mlp->output_elems()));
  std::vector<float> out_old(out_new.size());

  Request req;
  req.in = in.data();
  req.out = out_new.data();
  auto h_new = sched.submit(mlp, req);
  auto h_old = sched.submit(mlp, in.data(), out_old.data());
  h_new.wait();
  h_old.wait();
  ASSERT_TRUE(h_new.status().ok());
  ASSERT_TRUE(h_old.status().ok());
  EXPECT_EQ(0, std::memcmp(out_new.data(), out_old.data(),
                           out_new.size() * sizeof(float)));
  // Both went through the same class resolution: the MLP session default.
  EXPECT_EQ(h_new.request_class(), RequestClass::kThroughput);
  EXPECT_EQ(h_old.request_class(), RequestClass::kThroughput);
}

TEST(TypedSubmit, ClassResolvesFromSessionDefaultAndPerRequestOverride) {
  auto mlp = make_mlp_session("mlp_cls", tiny_mlp(), /*lanes=*/1, 22);
  auto llm = make_llm_session("llm_cls", tiny_llm(), /*prompt_len=*/4,
                              /*gen_tokens=*/2, /*lanes=*/1, 23);
  EXPECT_EQ(mlp->default_class(), RequestClass::kThroughput);
  EXPECT_EQ(llm->default_class(), RequestClass::kLatency);  // factory default

  ModelRegistry reg;
  reg.add(mlp);
  EXPECT_TRUE(reg.set_default_class("mlp_cls", RequestClass::kLatency).ok());
  EXPECT_EQ(mlp->default_class(), RequestClass::kLatency);
  EXPECT_EQ(reg.set_default_class("nope", RequestClass::kLatency).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      reg.set_default_class("mlp_cls", RequestClass::kSessionDefault).code(),
      StatusCode::kInvalidArgument);

  SchedulerConfig cfg;
  cfg.shards = 1;
  RequestScheduler sched(cfg);
  const auto in = make_input(*mlp, 6);
  std::vector<float> out(static_cast<std::size_t>(mlp->output_elems()));
  auto h_def = sched.submit(mlp, Request{in.data(), out.data()});
  EXPECT_EQ(h_def.request_class(), RequestClass::kLatency);
  Request req;
  req.in = in.data();
  req.out = out.data();
  req.cls = RequestClass::kThroughput;  // explicit beats the session default
  auto h_ovr = sched.submit(mlp, req);
  EXPECT_EQ(h_ovr.request_class(), RequestClass::kThroughput);
  h_def.wait();
  h_ovr.wait();
}

TEST(TypedSubmit, HandleReportsInFlightBeforeTerminal) {
  auto blocker = std::make_shared<BlockingSession>("blocking_inflight");
  SchedulerConfig cfg;
  cfg.max_batch = 1;
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  RequestScheduler sched(cfg);

  const float in[4] = {1, 2, 3, 4};
  float out[4] = {0};
  auto h = sched.submit(blocker, Request{in, out});
  ASSERT_TRUE(h.ok());
  blocker->await_entered();
  // Mid-execution: the handle is not done and must NOT read as OK (the
  // pre-redesign wart) — it reports the distinct non-terminal kInFlight.
  EXPECT_FALSE(h.done());
  EXPECT_EQ(h.status().code(), StatusCode::kInFlight);
  EXPECT_FALSE(h.status().ok());
  blocker->release();
  h.wait();
  EXPECT_TRUE(h.status().ok());  // terminal now
  EXPECT_EQ(RequestHandle().status().code(), StatusCode::kUnavailable);
}

// --- priority classes ---------------------------------------------------------

// Appends its session name to a shared order log on every run: lets tests
// assert cross-session flush ordering.
class OrderSession final : public Session {
 public:
  OrderSession(const std::string& name, int lanes, std::mutex* mu,
               std::vector<std::string>* order)
      : Session(name, lanes, 4, 4, 1.0), mu_(mu), order_(order) {}

  void run(int, const float* in, float* out) override {
    {
      std::lock_guard<std::mutex> g(*mu_);
      order_->push_back(name());
    }
    for (int i = 0; i < 4; ++i) out[i] = in[i];
  }

 private:
  std::mutex* mu_;
  std::vector<std::string>* order_;
};

// A ready latency batch must overtake a throughput batch that formed earlier
// but has not flushed yet — and a blocked in-flight region is the worst the
// latency class ever waits for. The blocker parks the dispatcher mid-region
// while both classes stack up behind it; on release, the latency request
// must execute before every throughput request despite arriving last.
TEST(SchedulerPriority, ReadyLatencyOvertakesFormedThroughputBatch) {
  for (const bool priority : {true, false}) {
    auto blocker = std::make_shared<BlockingSession>(
        priority ? "blk_pri_on" : "blk_pri_off");
    std::mutex mu;
    std::vector<std::string> order;
    auto thr = std::make_shared<OrderSession>("thr", 4, &mu, &order);
    auto lat = std::make_shared<OrderSession>("lat", 4, &mu, &order);
    lat->set_default_class(RequestClass::kLatency);

    SchedulerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_usecs = 0;
    cfg.shards = 1;
    cfg.priority = priority;
    RequestScheduler sched(cfg);

    const float in[4] = {1, 1, 1, 1};
    float bout[4], touts[4][4], lout[4];
    auto hb = sched.submit(blocker, Request{in, bout});
    blocker->await_entered();  // dispatcher is pinned inside a region
    std::vector<RequestHandle> hs;
    for (auto& tout : touts) {
      hs.push_back(sched.submit(thr, Request{in, tout}));
    }
    hs.push_back(sched.submit(lat, Request{in, lout}));  // arrives LAST
    blocker->release();
    for (auto& h : hs) h.wait();
    hb.wait();

    std::lock_guard<std::mutex> g(mu);
    ASSERT_EQ(order.size(), 5u);
    if (priority) {
      // Latency first, past one in-flight region, despite 4 queued
      // throughput requests ahead of it.
      EXPECT_EQ(order.front(), "lat");
    } else {
      // Class-blind FIFO control: the older throughput group flushes first.
      EXPECT_EQ(order.back(), "lat");
    }
  }
}

// --- continuous batching ------------------------------------------------------

// Steppable scripted session: `steps` resumable steps per request, each
// logging (request id = in[0], step, lane). A gate can block inside one
// chosen (id, step) so tests can submit mid-stream deterministically.
class StepSession final : public Session {
 public:
  StepSession(const std::string& name, int lanes, int steps)
      : Session(name, lanes, 1, 1, 1.0), steps_(steps) {}

  struct Entry {
    int id, step, lane;
  };

  bool steppable() const override { return true; }
  int step_count(int tokens_per_step) const override {
    return tokens_per_step <= 0 ? 1 : steps_;
  }

  void run(int, const float* in, float* out) override {
    out[0] = in[0] + static_cast<float>(steps_);
  }

  void run_step(int lane, const float* in, float* out, int step,
                int tokens_per_step) override {
    if (tokens_per_step <= 0) {
      run(lane, in, out);
      return;
    }
    {
      std::lock_guard<std::mutex> g(mu_);
      log_.push_back({static_cast<int>(in[0]), step, lane});
    }
    if (static_cast<int>(in[0]) == gate_id_.load() &&
        step == gate_step_.load()) {
      entered_gate.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lk(gate_mu_);
      gate_cv_.wait(lk, [&] { return gate_open_; });
    }
    if (step + 1 == steps_) out[0] = in[0] + static_cast<float>(steps_);
  }

  void arm_gate(int id, int step) {
    gate_id_.store(id);
    gate_step_.store(step);
  }
  void open_gate() {
    {
      std::lock_guard<std::mutex> g(gate_mu_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  void await_gate() {
    while (!entered_gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::vector<Entry> log() {
    std::lock_guard<std::mutex> g(mu_);
    return log_;
  }

  std::atomic<bool> entered_gate{false};

 private:
  int steps_;
  std::mutex mu_;
  std::vector<Entry> log_;
  std::atomic<int> gate_id_{-1};
  std::atomic<int> gate_step_{-1};
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool gate_open_ = false;
};

// A request submitted while another is mid-decode joins the running batch at
// the NEXT token boundary — not after the stream finishes — and every
// request keeps one sticky lane across all of its steps.
TEST(SchedulerDecode, MidStreamSubmitJoinsAtTokenBoundary) {
  constexpr int kSteps = 4;
  auto sess = std::make_shared<StepSession>("step_join", /*lanes=*/2, kSteps);
  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 0;
  cfg.shards = 1;
  cfg.decode_step_tokens = 1;
  RequestScheduler sched(cfg);

  const float in_a[1] = {1.0f}, in_b[1] = {2.0f};
  float out_a[1] = {0}, out_b[1] = {0};
  sess->arm_gate(/*id=*/1, /*step=*/0);  // hold A inside its first step
  auto ha = sched.submit(sess, Request{in_a, out_a});
  sess->await_gate();
  auto hb = sched.submit(sess, Request{in_b, out_b});  // arrives mid-stream
  sess->open_gate();
  ha.wait();
  hb.wait();
  ASSERT_TRUE(ha.status().ok());
  ASSERT_TRUE(hb.status().ok());
  EXPECT_EQ(out_a[0], 1.0f + kSteps);
  EXPECT_EQ(out_b[0], 2.0f + kSteps);

  const auto log = sess->log();
  ASSERT_EQ(log.size(), 2u * kSteps);
  int lane_a = -1, lane_b = -1;
  std::size_t b_first = log.size(), a_last = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& e = log[i];
    if (e.id == 1) {
      if (lane_a < 0) lane_a = e.lane;
      EXPECT_EQ(e.lane, lane_a) << "A hopped lanes mid-stream";
      if (e.step == kSteps - 1) a_last = i;
    } else {
      if (lane_b < 0) lane_b = e.lane;
      EXPECT_EQ(e.lane, lane_b) << "B hopped lanes mid-stream";
      if (e.step == 0) b_first = i;
    }
  }
  EXPECT_NE(lane_a, lane_b);  // exclusive lane ownership
  // The join: B's first step ran BEFORE A's last step — B did not wait for
  // A's stream to finish.
  EXPECT_LT(b_first, a_last);
}

// Stepped decode must be bitwise-identical to a monolithic run() — across
// decode granularities and shard counts (the ctest matrix adds runtimes).
TEST(SchedulerDecode, SteppedMatchesMonolithicBitwise) {
  auto llm = make_llm_session("llm_stepwise", tiny_llm(), /*prompt_len=*/4,
                              /*gen_tokens=*/5, /*lanes=*/2, 31);
  constexpr int kReqs = 6;
  std::vector<std::vector<float>> ins, want;
  for (int i = 0; i < kReqs; ++i) {
    ins.push_back(make_input(*llm, 400 + static_cast<std::uint64_t>(i)));
    want.emplace_back(static_cast<std::size_t>(llm->output_elems()));
    llm->run(0, ins.back().data(), want.back().data());  // monolithic ref
  }
  for (const int tps : {1, 3, 0}) {
    for (const int shards : {1, 2}) {
      SchedulerConfig cfg;
      cfg.max_batch = 2;
      cfg.batch_usecs = 100;
      cfg.shards = shards;
      cfg.decode_step_tokens = tps;
      RequestScheduler sched(cfg);
      std::vector<std::vector<float>> outs(
          kReqs,
          std::vector<float>(static_cast<std::size_t>(llm->output_elems())));
      std::vector<RequestHandle> hs;
      for (int i = 0; i < kReqs; ++i) {
        hs.push_back(sched.submit(
            llm, Request{ins[static_cast<std::size_t>(i)].data(),
                         outs[static_cast<std::size_t>(i)].data()}));
      }
      for (auto& h : hs) h.wait();
      for (int i = 0; i < kReqs; ++i) {
        ASSERT_TRUE(hs[static_cast<std::size_t>(i)].status().ok());
        EXPECT_EQ(0,
                  std::memcmp(want[static_cast<std::size_t>(i)].data(),
                              outs[static_cast<std::size_t>(i)].data(),
                              want[static_cast<std::size_t>(i)].size() *
                                  sizeof(float)))
            << "tps=" << tps << " shards=" << shards << " req=" << i;
      }
      sched.shutdown();
      const auto stats = sched.stats();
      ASSERT_EQ(stats.size(), 1u);
      if (tps > 0) {
        EXPECT_GT(stats[0].decode_steps, 0u);  // stepped path actually ran
      } else {
        EXPECT_EQ(stats[0].decode_steps, 0u);  // 0 = monolithic, by contract
        EXPECT_GT(stats[0].batches, 0u);
      }
    }
  }
}

// Watchdog failover re-pins a session with a first-touch warmup while a
// stepped request may hold a lane between its steps. The warmup must leave
// that lane alone: running it would overwrite the request's KV cache, and
// the remaining steps would decode against another input's prompt.
TEST(SchedulerDecode, RewarmSkipsLanesHeldByRequests) {
  auto llm = make_llm_session("llm_rewarm", tiny_llm(), /*prompt_len=*/4,
                              /*gen_tokens=*/4, /*lanes=*/2, 37);
  const auto in = make_input(*llm, 450);
  std::vector<float> want(static_cast<std::size_t>(llm->output_elems()));
  std::vector<float> got(want.size());
  llm->run(0, in.data(), want.data());  // monolithic reference

  constexpr int kTokensPerStep = 1;
  const int steps = llm->step_count(kTokensPerStep);
  ASSERT_GT(steps, 1);
  const int lane = llm->acquire_lane();
  ASSERT_GE(lane, 0);
  llm->run_step(lane, in.data(), got.data(), 0, kTokensPerStep);
  llm->pin_partition(llm->partition() == 1 ? 0 : 1);  // failover re-home
  for (int step = 1; step < steps; ++step) {
    llm->run_step(lane, in.data(), got.data(), step, kTokensPerStep);
  }
  llm->release_lane(lane);
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(float)));
  test::expect_all_lanes_free(*llm);
}

// Brownout halves the decode window of new submits, so one pending group
// holds 1-step requests (admitted before the brownout) next to 2-step ones
// (admitted during it), and windows mix them. Each request must still take
// its own lane, give it back when it resolves, and decode bitwise-equal to a
// sequential run.
TEST(SchedulerDecode, MixedStepCountWindowReleasesEveryLane) {
  auto llm = make_llm_session("llm_mixed_window", tiny_llm(),
                              /*prompt_len=*/4, /*gen_tokens=*/4,
                              /*lanes=*/4, 53);
  constexpr int kInputs = 4;
  constexpr int kWave = 401;
  std::vector<std::vector<float>> ins, want;
  for (int i = 0; i < kInputs; ++i) {
    ins.push_back(make_input(*llm, 900 + static_cast<std::uint64_t>(i)));
    want.emplace_back(static_cast<std::size_t>(llm->output_elems()));
    llm->run(0, ins.back().data(), want.back().data());
  }

  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.decode_step_tokens = 4;  // gen_tokens = 4: one step, two in brownout
  cfg.target_delay_usecs = 1;
  RequestScheduler sched(cfg);
  std::vector<std::vector<float>> outs(
      2 * kWave,
      std::vector<float>(static_cast<std::size_t>(llm->output_elems())));
  std::vector<RequestHandle> hs;
  const auto submit_wave = [&] {
    for (int i = 0; i < kWave; ++i) {
      const std::size_t k = hs.size();
      Request req;
      req.in = ins[k % kInputs].data();
      req.out = outs[k].data();
      hs.push_back(sched.submit(llm, req));
    }
  };
  submit_wave();
  const auto t0 = std::chrono::steady_clock::now();
  while (sched.overload_level(0) < 1 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::yield();
  }
  submit_wave();

  std::uint64_t ok = 0;
  for (std::size_t k = 0; k < hs.size(); ++k) {
    hs[k].wait();
    ASSERT_TRUE(hs[k].done());
    if (!hs[k].status().ok()) continue;
    ++ok;
    EXPECT_EQ(0, std::memcmp(want[k % kInputs].data(), outs[k].data(),
                             outs[k].size() * sizeof(float)))
        << "request " << k;
  }
  sched.shutdown();

  EXPECT_GE(sched.overload_brownouts(), 1u);
  const auto stats = sched.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].batches, 0u);       // 1-step windows ran
  EXPECT_GT(stats[0].decode_steps, 0u);  // and windows with 2-step requests
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, hs.size());
  EXPECT_EQ(c.completed, ok);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
  test::expect_all_lanes_free(*llm);
}

// Chaos with stepped requests in flight: exact terminal accounting and
// bitwise-correct OK outputs must survive faults that fire mid-decode.
TEST(SchedulerChaos, SteppedRequestsKeepExactAccountingUnderFaults) {
  fault::reset();
  auto llm = make_llm_session("llm_chaos_step", tiny_llm(), /*prompt_len=*/4,
                              /*gen_tokens=*/4, /*lanes=*/4, 317);
  auto mlp = make_mlp_session("mlp_chaos_step", tiny_mlp(), /*lanes=*/4, 318);
  llm->pin_partition(0);
  mlp->pin_partition(1);
  std::vector<std::shared_ptr<Session>> sessions = {llm, mlp};
  constexpr int kPerModel = 120;
  constexpr int kInputs = 4;

  std::vector<std::vector<std::vector<float>>> ins(sessions.size());
  std::vector<std::vector<std::vector<float>>> want(sessions.size());
  for (std::size_t m = 0; m < sessions.size(); ++m) {
    for (int i = 0; i < kInputs; ++i) {
      ins[m].push_back(
          make_input(*sessions[m], 700 + static_cast<std::uint64_t>(i)));
      want[m].emplace_back(
          static_cast<std::size_t>(sessions[m]->output_elems()));
      sessions[m]->run(0, ins[m].back().data(), want[m].back().data());
    }
  }

  fault::configure("kernel_exec:throw:0.02", 11);
  SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_usecs = 200;
  cfg.shards = 2;
  cfg.decode_step_tokens = 1;  // llm requests run stepped
  cfg.quarantine = false;
  {
    RequestScheduler sched(cfg);
    std::vector<RequestHandle> handles;
    std::vector<std::vector<float>> outs;
    std::vector<std::pair<std::size_t, int>> tags;
    for (int i = 0; i < kPerModel; ++i) {
      for (std::size_t m = 0; m < sessions.size(); ++m) {
        outs.emplace_back(
            static_cast<std::size_t>(sessions[m]->output_elems()));
        tags.emplace_back(m, i % kInputs);
        handles.push_back(
            sched.submit(sessions[m],
                         Request{ins[m][tags.back().second].data(),
                                 outs.back().data()}));
      }
    }
    std::uint64_t ok = 0, failed = 0;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i].wait();
      ASSERT_TRUE(handles[i].done());
      const Status st = handles[i].status();
      if (st.ok()) {
        ++ok;
        const auto [m, k] = tags[i];
        ASSERT_EQ(0, std::memcmp(want[m][static_cast<std::size_t>(k)].data(),
                                 outs[i].data(),
                                 outs[i].size() * sizeof(float)))
            << sessions[m]->name() << " request " << i;
      } else {
        ++failed;
        EXPECT_EQ(st.code(), StatusCode::kInternal) << st.to_string();
      }
    }
    fault::reset();
    sched.shutdown();
    const auto c = sched.counters();
    EXPECT_EQ(c.submitted, handles.size());
    EXPECT_EQ(c.completed, ok);
    EXPECT_EQ(c.failed, failed);
    EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
              c.submitted);
    // The llm session must actually have taken the stepped path.
    for (const auto& st : sched.stats()) {
      if (st.model == "llm_chaos_step") EXPECT_GT(st.decode_steps, 0u);
    }
    for (const auto& sess : sessions) test::expect_all_lanes_free(*sess);
  }
  fault::reset();
}

// --- config knobs -------------------------------------------------------------

TEST(SchedulerConfigEnv, PriorityAndDecodeKnobsValidateWithFallback) {
  const SchedulerConfig def;
  ::setenv("PLT_SERVE_PRIORITY", "0", 1);
  ::setenv("PLT_SERVE_DECODE_STEP_TOKENS", "3", 1);
  SchedulerConfig good = SchedulerConfig::from_env();
  EXPECT_FALSE(good.priority);
  EXPECT_EQ(good.decode_step_tokens, 3);

  // Malformed / out-of-range values warn and fall back to the defaults.
  ::setenv("PLT_SERVE_PRIORITY", "maybe", 1);
  ::setenv("PLT_SERVE_DECODE_STEP_TOKENS", "-5", 1);
  SchedulerConfig bad = SchedulerConfig::from_env();
  EXPECT_EQ(bad.priority, def.priority);
  EXPECT_EQ(bad.decode_step_tokens, def.decode_step_tokens);

  ::setenv("PLT_SERVE_DECODE_STEP_TOKENS", "99999", 1);  // > 4096 cap
  EXPECT_EQ(SchedulerConfig::from_env().decode_step_tokens,
            def.decode_step_tokens);

  ::unsetenv("PLT_SERVE_PRIORITY");
  ::unsetenv("PLT_SERVE_DECODE_STEP_TOKENS");
}


// --- batch-sized regions ------------------------------------------------------

// Records the member id and region size every run() executes with, so tests
// can assert how wide the scheduler sized each batch region.
class RegionProbeSession final : public Session {
 public:
  RegionProbeSession(const std::string& name, int lanes)
      : Session(name, lanes, 4, 4, 1.0) {}

  struct Seen {
    int tid, nthreads;
  };

  void run(int, const float* in, float* out) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      seen_.push_back({thread_id(), num_threads_in_region()});
    }
    for (int i = 0; i < 4; ++i) out[i] = in[i];
  }
  std::vector<Seen> take() {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<Seen> out;
    out.swap(seen_);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<Seen> seen_;
};

// A batch of B requests runs as one region of min(B, team) members, in the
// single-queue layout (team = the pool) and the sharded one (team = the
// session's partition). A blocker parks the dispatcher while the B requests
// queue up, so they flush as exactly one batch.
TEST(SchedulerRegionWidth, BatchRegionHasOneMemberPerRequestUpToTheTeam) {
  if (runtime() != Runtime::kPool) {
    GTEST_SKIP() << "region width is a pool dispatch property";
  }
  ThreadPool& pool = ThreadPool::instance();
  for (const int shards : {1, 0}) {
    SchedulerConfig cfg;
    cfg.max_batch = pool.size() + 1;
    cfg.batch_usecs = 0;
    cfg.shards = shards;
    cfg.steal = false;  // a sibling must not split the batch by stealing
    RequestScheduler sched(cfg);
    const int team =
        sched.shard_count() > 1 ? pool.partition_size(0) : pool.size();
    const std::string tag = "_shards" + std::to_string(shards);
    auto probe =
        std::make_shared<RegionProbeSession>("region_probe" + tag, team + 1);
    probe->pin_partition_if_unpinned(0);

    for (int batch = 1; batch <= team + 1; ++batch) {
      auto blocker = std::make_shared<BlockingSession>(
          "region_blk" + tag + "_" + std::to_string(batch));
      blocker->pin_partition_if_unpinned(0);  // same shard as the probe
      const float in[4] = {1, 2, 3, 4};
      float bout[4];
      std::vector<std::array<float, 4>> outs(static_cast<std::size_t>(batch));
      auto hb = sched.submit(blocker, Request{in, bout});
      blocker->await_entered();
      std::vector<RequestHandle> hs;
      for (auto& out : outs) hs.push_back(sched.submit(probe, Request{in, out.data()}));
      blocker->release();
      for (auto& h : hs) {
        h.wait();
        EXPECT_TRUE(h.status().ok());
      }
      hb.wait();

      const int width = std::min(batch, team);
      const std::vector<RegionProbeSession::Seen> seen = probe->take();
      ASSERT_EQ(seen.size(), static_cast<std::size_t>(batch)) << tag;
      std::vector<int> runs_per_tid(static_cast<std::size_t>(width), 0);
      for (const auto& e : seen) {
        EXPECT_EQ(e.nthreads, width) << tag << " batch " << batch;
        ASSERT_GE(e.tid, 0);
        ASSERT_LT(e.tid, width) << tag << " batch " << batch;
        ++runs_per_tid[static_cast<std::size_t>(e.tid)];
      }
      // Member t serves requests t, t + width, ...: every member has one.
      for (int t = 0; t < width; ++t) {
        EXPECT_EQ(runs_per_tid[static_cast<std::size_t>(t)],
                  (batch - t + width - 1) / width)
            << tag << " batch " << batch << " tid " << t;
      }
    }
    sched.shutdown();
  }
}

}  // namespace
}  // namespace plt::serving
