// Watchdog supervision + adaptive overload control tests: stall detection
// via the dispatcher_stall fault site, the warn -> quarantine -> failover +
// restart escalation ladder with exact terminal accounting (the PR 6
// invariant survives a supervised restart), quarantine rerouting, restart
// false-positive safety, and the delay-gradient controller's brownout /
// gradient-shed behavior. Designed to run TSan/ASan-clean.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"
#include "serving/session.hpp"
#include "serving/watchdog.hpp"
#include "test_utils.hpp"

namespace plt::serving {
namespace {

namespace fault = plt::common::fault;

// 4-elem passthrough (out = 2 * in) with an optional per-run sleep: the
// overload tests need an execution time that dwarfs the sojourn target
// without burning CPU, the watchdog tests need instant requests.
class EchoSession final : public Session {
 public:
  EchoSession(const std::string& name, int lanes, std::int64_t exec_usecs = 0)
      : Session(name, lanes, /*input_elems=*/4, /*output_elems=*/4,
                /*flops=*/1.0),
        exec_usecs_(exec_usecs) {}

  std::atomic<int> runs{0};

  void run(int, const float* in, float* out) override {
    runs.fetch_add(1);
    if (exec_usecs_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(exec_usecs_));
    }
    for (int i = 0; i < 4; ++i) out[i] = 2.0f * in[i];
  }

 private:
  const std::int64_t exec_usecs_;
};

TEST(WatchdogConfig, RestartTicksClampedAboveQuarantineTicks) {
  WatchdogConfig cfg;
  cfg.period_usecs = 1000;
  cfg.quarantine_ticks = 5;
  cfg.restart_ticks = 2;  // nonsense ordering: restart before quarantine
  RequestScheduler sched(SchedulerConfig{});
  Watchdog dog(&sched, nullptr, cfg);
  EXPECT_GE(dog.config().restart_ticks, dog.config().quarantine_ticks);
}

TEST(Watchdog, PeriodZeroDisablesSupervision) {
  RequestScheduler sched(SchedulerConfig{});
  WatchdogConfig cfg;
  cfg.period_usecs = 0;
  Watchdog dog(&sched, nullptr, cfg);
  EXPECT_FALSE(dog.running());
  EXPECT_EQ(dog.stats().warnings, 0u);
}

TEST(Watchdog, IdleParkedDispatcherIsNeverFlagged) {
  SchedulerConfig cfg;
  cfg.shards = 2;
  RequestScheduler sched(cfg);
  WatchdogConfig wcfg;
  wcfg.period_usecs = 1000;
  Watchdog dog(&sched, nullptr, wcfg);
  ASSERT_TRUE(dog.running());
  // Both dispatchers park with empty shards: heartbeats freeze, but zero
  // backlog is the idle signature, never the wedged one.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto st = dog.stats();
  EXPECT_EQ(st.warnings, 0u);
  EXPECT_EQ(st.quarantines, 0u);
  EXPECT_EQ(st.restarts, 0u);
}

TEST(Watchdog, QuarantinedShardWithNoBacklogIsReadmitted) {
  // A quarantined shard whose dispatcher drained everything and parked has
  // a frozen heartbeat and nothing owed; quarantine reroutes new work away,
  // so no heartbeat advance would ever come. The watchdog re-admits it.
  SchedulerConfig cfg;
  cfg.shards = 2;
  RequestScheduler sched(cfg);
  // Let both dispatchers park first, so the watchdog's baseline heartbeat
  // is final and only the empty backlog can lift the quarantine.
  std::uint64_t hb = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    hb = sched.shard_heartbeat(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (sched.shard_heartbeat(1) != hb &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10));
  WatchdogConfig wcfg;
  wcfg.period_usecs = 1000;
  Watchdog dog(&sched, nullptr, wcfg);
  ASSERT_TRUE(dog.running());
  sched.set_shard_quarantined(1, true);
  const auto t1 = std::chrono::steady_clock::now();
  while (sched.shard_quarantined(1) &&
         std::chrono::steady_clock::now() - t1 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(sched.shard_quarantined(1));
  EXPECT_EQ(dog.stats().recoveries, 1u);
  EXPECT_EQ(dog.stats().quarantines, 0u);
}

// The ISSUE acceptance scenario: an armed dispatcher_stall wedges exactly
// one dispatcher (max_fires=1). The watchdog must warn, quarantine, fail
// the shard's pinned sessions over to a healthy partition, restart the
// dispatcher, and every request — including those stranded behind the
// stall — must resolve to exactly one terminal status. Stealing is off so
// the sibling cannot drain the wedged shard's queue out from under the
// ladder.
TEST(Watchdog, StallEscalatesToFailoverAndRestartWithExactAccounting) {
  fault::reset();
  auto a = std::make_shared<EchoSession>("wd_a", 2);
  auto b = std::make_shared<EchoSession>("wd_b", 2);
  ModelRegistry reg;
  reg.add(a);
  reg.add(b);

  SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.batch_usecs = 100;
  cfg.shards = 2;
  cfg.steal = false;
  fault::configure("dispatcher_stall:fail:1.0:1", 5);
  RequestScheduler sched(cfg);
  // Commit the victim: exactly one dispatcher draws the stall and wedges.
  const auto t0 = std::chrono::steady_clock::now();
  while (fault::injected(fault::Site::kDispatcherStall) < 1 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fault::injected(fault::Site::kDispatcherStall), 1u);

  a->pin_partition(0);
  b->pin_partition(1);

  // The period must dwarf a healthy dispatcher's worst loop iteration on a
  // contended host: at 3 ms, suites running alongside this one let the
  // healthy shard miss two samples and be quarantined too, leaving the
  // failover no healthy target.
  WatchdogConfig wcfg;
  wcfg.period_usecs = 20000;
  wcfg.quarantine_ticks = 2;
  wcfg.restart_ticks = 3;
  Watchdog dog(&sched, &reg, wcfg);
  ASSERT_TRUE(dog.running());

  const float in[4] = {1, 2, 3, 4};
  constexpr int kPerModel = 16;
  std::vector<std::array<float, 4>> outs(2 * kPerModel);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kPerModel; ++i) {
    handles.push_back(
        sched.submit(a, in, outs[static_cast<std::size_t>(2 * i)].data()));
    handles.push_back(
        sched.submit(b, in, outs[static_cast<std::size_t>(2 * i + 1)].data()));
  }
  // One shard's requests are stranded behind the wedge until the watchdog
  // escalates through failover + restart; wait() must therefore return for
  // every handle, each with exactly one terminal status.
  for (auto& h : handles) {
    ASSERT_TRUE(h.ok());
    h.wait();
    ASSERT_TRUE(h.done());
    EXPECT_TRUE(h.status().ok()) << h.status().to_string();
  }
  for (const auto& out : outs) EXPECT_EQ(out[3], 8.0f);

  // Recovery: the restart lifts the quarantine. A replacement slow enough
  // to trip the ladder again (contended host) is quarantined anew until the
  // next sample sees its progress or its emptied backlog.
  const auto any_quarantined = [&] {
    for (int s = 0; s < sched.shard_count(); ++s) {
      if (sched.shard_quarantined(s)) return true;
    }
    return false;
  };
  const auto t1 = std::chrono::steady_clock::now();
  while ((dog.stats().recoveries < 1 || any_quarantined()) &&
         std::chrono::steady_clock::now() - t1 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto wst = dog.stats();
  EXPECT_GE(wst.warnings, 1u);
  EXPECT_GE(wst.quarantines, 1u);
  EXPECT_GE(wst.restarts, 1u);
  EXPECT_GE(wst.failovers, 1u);  // the stalled shard's session was re-pinned
  EXPECT_GE(wst.recoveries, 1u);
  EXPECT_GE(sched.dispatcher_restarts(), 1u);
  for (int s = 0; s < sched.shard_count(); ++s) {
    EXPECT_FALSE(sched.shard_quarantined(s)) << "shard " << s;
  }

  dog.stop();
  fault::reset();
  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, handles.size());
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
  EXPECT_EQ(c.completed, handles.size());  // nothing was lost OR failed
  test::expect_all_lanes_free(*a);
  test::expect_all_lanes_free(*b);
}

TEST(Watchdog, QuarantinedShardReroutesNewAdmissions) {
  auto s0 = std::make_shared<EchoSession>("wd_q0", 2);
  ModelRegistry reg;
  reg.add(s0);
  SchedulerConfig cfg;
  cfg.shards = 2;
  cfg.steal = false;
  RequestScheduler sched(cfg);
  s0->pin_partition(0);

  sched.set_shard_quarantined(0, true);
  EXPECT_TRUE(sched.shard_quarantined(0));
  const float in[4] = {1, 2, 3, 4};
  float out[4] = {0};
  // The home shard is quarantined: the submit lands on the healthy sibling
  // and still completes (thief-style execution on the sibling's partition).
  auto h = sched.submit(s0, in, out);
  ASSERT_TRUE(h.ok());
  h.wait();
  EXPECT_TRUE(h.status().ok()) << h.status().to_string();
  EXPECT_EQ(out[1], 4.0f);
  sched.set_shard_quarantined(0, false);

  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

// False-positive safety: restarting a HEALTHY dispatcher mid-traffic must
// lose nothing — the retired thread hands its pending work back through the
// queue and every handle still resolves exactly once.
TEST(Watchdog, RestartingHealthyDispatcherIsLossless) {
  auto s = std::make_shared<EchoSession>("wd_restart", 2, /*exec_usecs=*/200);
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.max_batch = 2;
  cfg.batch_usecs = 100;
  RequestScheduler sched(cfg);

  const float in[4] = {1, 2, 3, 4};
  constexpr int kTotal = 64;
  std::vector<std::array<float, 4>> outs(kTotal);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < kTotal; ++i) {
    handles.push_back(
        sched.submit(s, in, outs[static_cast<std::size_t>(i)].data()));
    if (i % 16 == 7) {
      EXPECT_TRUE(sched.restart_dispatcher(0));
    }
  }
  std::uint64_t ok = 0, unavailable = 0;
  for (auto& h : handles) {
    h.wait();
    ASSERT_TRUE(h.done());
    if (h.status().ok()) {
      ++ok;
    } else {
      // A restart racing shutdown may resolve a handed-back request
      // kUnavailable; that is still exactly-one-terminal-status.
      EXPECT_EQ(h.status().code(), StatusCode::kUnavailable)
          << h.status().to_string();
      ++unavailable;
    }
  }
  EXPECT_EQ(sched.dispatcher_restarts(), 4u);
  sched.shutdown();
  EXPECT_FALSE(sched.restart_dispatcher(0));  // after shutdown: refused
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(c.completed, ok);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
  test::expect_all_lanes_free(*s);
}

// Delay-gradient overload control: a single slow shard under a burst far
// beyond its capacity must brown out (level 1) and then shed throughput-
// class backlog (level 2) — while the latency class is never gradient-shed
// and completes in full (the "p95 of the latency class degrades last"
// contract, asserted structurally rather than by timing).
TEST(Overload, DelayGradientBrownsOutThenShedsThroughputOnly) {
  auto s = std::make_shared<EchoSession>("ovl", 2, /*exec_usecs=*/1000);
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.max_batch = 4;
  cfg.batch_usecs = 100;
  cfg.target_delay_usecs = 300;  // sojourn target << 1 ms execution time
  RequestScheduler sched(cfg);

  const float in[4] = {1, 2, 3, 4};
  constexpr int kThroughput = 60;
  constexpr int kLatency = 10;
  std::vector<std::array<float, 4>> outs(kThroughput + kLatency);
  std::vector<RequestHandle> tp, lat;
  for (int i = 0; i < kThroughput; ++i) {
    Request r;
    r.in = in;
    r.out = outs[static_cast<std::size_t>(i)].data();
    r.cls = RequestClass::kThroughput;
    tp.push_back(sched.submit(s, r));
  }
  for (int i = 0; i < kLatency; ++i) {
    Request r;
    r.in = in;
    r.out = outs[static_cast<std::size_t>(kThroughput + i)].data();
    r.cls = RequestClass::kLatency;
    lat.push_back(sched.submit(s, r));
  }

  std::uint64_t tp_ok = 0, tp_shed = 0;
  for (auto& h : tp) {
    h.wait();
    ASSERT_TRUE(h.done());
    if (h.status().ok()) {
      ++tp_ok;
    } else {
      ASSERT_EQ(h.status().code(), StatusCode::kResourceExhausted)
          << h.status().to_string();
      EXPECT_NE(h.status().message().find("delay-gradient"),
                std::string::npos);
      ++tp_shed;
    }
  }
  for (auto& h : lat) {
    h.wait();
    ASSERT_TRUE(h.done());
    // The latency class is never gradient-shed: it completes, full stop.
    EXPECT_TRUE(h.status().ok()) << h.status().to_string();
  }

  EXPECT_GE(sched.overload_brownouts(), 1u);
  EXPECT_GE(sched.overload_sheds(), 1u);
  EXPECT_EQ(sched.overload_sheds(), tp_shed);
  EXPECT_GT(tp_ok, 0u);  // brownout is a brake, not a blackout

  sched.shutdown();
  const auto c = sched.counters();
  EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kThroughput + kLatency));
  EXPECT_EQ(c.shed, tp_shed);
  EXPECT_EQ(c.completed + c.failed + c.expired + c.shed + c.rejected,
            c.submitted);
}

TEST(Overload, ControllerOffWhenTargetUnset) {
  auto s = std::make_shared<EchoSession>("ovl_off", 2, /*exec_usecs=*/500);
  SchedulerConfig cfg;
  cfg.shards = 1;
  cfg.max_batch = 2;
  cfg.target_delay_usecs = 0;  // adaptive control disabled
  RequestScheduler sched(cfg);

  const float in[4] = {1, 2, 3, 4};
  std::vector<std::array<float, 4>> outs(24);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 24; ++i) {
    Request r;
    r.in = in;
    r.out = outs[static_cast<std::size_t>(i)].data();
    r.cls = RequestClass::kThroughput;
    handles.push_back(sched.submit(s, r));
  }
  for (auto& h : handles) {
    h.wait();
    EXPECT_TRUE(h.status().ok()) << h.status().to_string();
  }
  EXPECT_EQ(sched.overload_brownouts(), 0u);
  EXPECT_EQ(sched.overload_sheds(), 0u);
  EXPECT_EQ(sched.overload_level(0), 0);
  sched.shutdown();
}

}  // namespace
}  // namespace plt::serving
