// Watchdog supervision: detects wedged dispatchers and recovers placement.
//
// The scheduler's fault machinery (PR 6) isolates failures that ANNOUNCE
// themselves — an exception, a failed lookup, a passed deadline. A wedged
// dispatcher announces nothing: its thread is alive, its queue fills, and
// every session pinned to its partition silently stops being served. The
// Watchdog closes that gap by sampling each shard's liveness surface
// (RequestScheduler::shard_heartbeat / shard_backlog) every
// PLT_WATCHDOG_USECS microseconds and escalating when a dispatcher's
// heartbeat stops advancing while it still owns backlog:
//
//   tick 1                  -> warn (logged; Stats::warnings)
//   tick quarantine_ticks   -> shard quarantined: submit() reroutes new
//                              admissions to healthy shards; queued work
//                              stays for the restarted dispatcher
//   tick restart_ticks      -> FAILOVER + supervised restart: sessions
//                              pinned to the stalled shard's partitions are
//                              re-pinned (re-warmed via the run_on
//                              machinery) onto healthy partitions — the
//                              first concrete piece of the ROADMAP's
//                              load-aware placer — then the dispatcher
//                              thread is replaced. The stale thread hands
//                              its pending work back through the queue, so
//                              every stranded request still resolves to
//                              exactly one terminal status.
//
// Escalation resets as soon as the heartbeat advances again; a quarantined
// shard is re-admitted (recovery) when its dispatcher makes progress or its
// backlog is gone. A
// parked dispatcher with an EMPTY shard is never flagged — zero backlog is
// the idle signature, not the wedged one.
//
// False positives are safe by construction: restarting a healthy-but-slow
// dispatcher only retires it at the next loop boundary (it re-enqueues its
// pending work and exits — nothing is lost, nothing races), so the period
// only needs to be large against the worst expected batch execution time,
// not provably larger.
//
// External probes (add_probe) extend the same stall detection to event
// loops outside the scheduler — the net::Server publishes loop_epoch()/
// backlog for this — but are WARN-ONLY: the watchdog cannot restart what it
// does not own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"

namespace plt::serving {

struct WatchdogConfig {
  // PLT_WATCHDOG_USECS: sampling period; 0 disables supervision entirely
  // (the watchdog thread is never started). A wedged dispatcher is detected
  // (warned) within 2x this period.
  std::int64_t period_usecs = 0;

  // PLT_WATCHDOG_QUARANTINE_TICKS: consecutive stalled samples before the
  // shard is quarantined (new admissions rerouted).
  int quarantine_ticks = 2;

  // PLT_WATCHDOG_RESTART_TICKS: consecutive stalled samples before failover
  // + supervised dispatcher restart. Clamped to >= quarantine_ticks.
  int restart_ticks = 3;

  static WatchdogConfig from_env();
};

class Watchdog {
 public:
  // registry may be null: the watchdog then restarts dispatchers but cannot
  // fail sessions over (it has no session table to re-pin). The scheduler
  // and registry must outlive the watchdog.
  explicit Watchdog(RequestScheduler* scheduler,
                    ModelRegistry* registry = nullptr,
                    WatchdogConfig cfg = WatchdogConfig::from_env());
  ~Watchdog();  // implies stop()

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Stops and joins the supervision thread. Idempotent.
  void stop();

  // True while the supervision thread runs (period > 0 and not stopped).
  bool running() const;

  const WatchdogConfig& config() const { return cfg_; }

  // Warn-only supervision of an external event loop (e.g. the net::Server
  // epoll loop): flagged by the same heartbeat-frozen-while-backlogged rule,
  // logged and counted but never restarted. Call before heavy traffic;
  // thread-safe.
  void add_probe(std::string name, std::function<std::uint64_t()> epoch,
                 std::function<std::size_t()> backlog);

  struct Stats {
    std::uint64_t warnings = 0;     // first stalled tick per incident
    std::uint64_t quarantines = 0;  // shards quarantined
    std::uint64_t restarts = 0;     // supervised dispatcher restarts
    std::uint64_t failovers = 0;    // sessions re-pinned off stalled shards
    std::uint64_t recoveries = 0;   // quarantined shards re-admitted
    std::uint64_t probe_warnings = 0;  // external probes flagged
  };
  Stats stats() const;

 private:
  void main();
  // Re-pins every session homed on shard s onto healthy partitions,
  // round-robin, re-warming each on its new sub-team. Returns sessions moved.
  int fail_over(int s);

  WatchdogConfig cfg_;
  RequestScheduler* sched_;
  ModelRegistry* registry_;

  struct Probe {
    std::string name;
    std::function<std::uint64_t()> epoch;
    std::function<std::size_t()> backlog;
    std::uint64_t last = 0;
    bool stalled = false;  // edge-triggered warn
  };
  std::vector<Probe> probes_;  // guarded by mu_

  std::atomic<std::uint64_t> warnings_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> probe_warnings_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace plt::serving
