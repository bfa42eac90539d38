#include "serving/watchdog.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "common/log.hpp"
#include "common/threading.hpp"

namespace plt::serving {

WatchdogConfig WatchdogConfig::from_env() {
  const WatchdogConfig def;
  WatchdogConfig c;
  c.period_usecs =
      common::env_int("PLT_WATCHDOG_USECS", def.period_usecs, 0, 600000000);
  c.quarantine_ticks = static_cast<int>(common::env_int(
      "PLT_WATCHDOG_QUARANTINE_TICKS", def.quarantine_ticks, 1, 1000));
  c.restart_ticks = static_cast<int>(common::env_int(
      "PLT_WATCHDOG_RESTART_TICKS", def.restart_ticks, 1, 1000));
  c.restart_ticks = std::max(c.restart_ticks, c.quarantine_ticks);
  return c;
}

Watchdog::Watchdog(RequestScheduler* scheduler, ModelRegistry* registry,
                   WatchdogConfig cfg)
    : cfg_(cfg), sched_(scheduler), registry_(registry) {
  cfg_.restart_ticks = std::max(cfg_.restart_ticks, cfg_.quarantine_ticks);
  if (sched_ != nullptr && cfg_.period_usecs > 0) {
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { main(); });
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

bool Watchdog::running() const {
  return running_.load(std::memory_order_acquire);
}

void Watchdog::add_probe(std::string name,
                         std::function<std::uint64_t()> epoch,
                         std::function<std::size_t()> backlog) {
  std::lock_guard<std::mutex> g(mu_);
  Probe p;
  p.name = std::move(name);
  p.epoch = std::move(epoch);
  p.backlog = std::move(backlog);
  p.last = p.epoch ? p.epoch() : 0;
  probes_.push_back(std::move(p));
}

Watchdog::Stats Watchdog::stats() const {
  Stats st;
  st.warnings = warnings_.load(std::memory_order_relaxed);
  st.quarantines = quarantines_.load(std::memory_order_relaxed);
  st.restarts = restarts_.load(std::memory_order_relaxed);
  st.failovers = failovers_.load(std::memory_order_relaxed);
  st.recoveries = recoveries_.load(std::memory_order_relaxed);
  st.probe_warnings = probe_warnings_.load(std::memory_order_relaxed);
  return st;
}

int Watchdog::fail_over(int s) {
  if (registry_ == nullptr) return 0;
  const int nshards = sched_->shard_count();
  if (nshards <= 1) return 0;
  // Candidate partitions: the pinning domain shard_of() uses, widened to at
  // least the shard count — a pool with fewer partitions than shards still
  // homes sessions on every shard (partition indices wrap at dispatch), so
  // the domain must cover every shard or a 1-partition pool would have no
  // target off shard 0. Minus every partition homed on a quarantined (or
  // the stalled) shard.
  const int nparts =
      runtime() == Runtime::kPool
          ? std::max({1, pool_partitions(), nshards})
          : nshards;
  std::vector<int> targets;
  for (int p = 0; p < nparts; ++p) {
    const int home = p % nshards;
    if (home == s || sched_->shard_quarantined(home)) continue;
    targets.push_back(p);
  }
  if (targets.empty()) return 0;  // nowhere healthy to go
  int moved = 0;
  for (const auto& sess : registry_->sessions()) {
    const int p = sess->partition();
    if (p < 0 || p % nshards != s) continue;
    const int target = targets[static_cast<std::size_t>(moved) %
                               targets.size()];
    // Re-pin + re-warm on the new sub-team (first_touch). pin_partition
    // serializes on the session's exec mutex, so it never races a batch;
    // the wedged dispatcher cannot hold that mutex (the stall site sits
    // outside every execution scope).
    sess->pin_partition(target, /*first_touch=*/true);
    PLT_LOG_WARN << "watchdog: failed over session '" << sess->name()
                 << "' from stalled shard " << s << " to partition "
                 << target;
    ++moved;
  }
  failovers_.fetch_add(static_cast<std::uint64_t>(moved),
                       std::memory_order_relaxed);
  return moved;
}

void Watchdog::main() {
  const int nshards = sched_->shard_count();
  std::vector<std::uint64_t> last_hb(static_cast<std::size_t>(nshards), 0);
  std::vector<int> ticks(static_cast<std::size_t>(nshards), 0);
  for (int s = 0; s < nshards; ++s) {
    last_hb[static_cast<std::size_t>(s)] = sched_->shard_heartbeat(s);
  }
  const auto period = std::chrono::microseconds(cfg_.period_usecs);
  const auto readmit = [&](int s) {
    if (!sched_->shard_quarantined(s)) return;
    sched_->set_shard_quarantined(s, false);
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    PLT_LOG_INFO << "watchdog: shard " << s << " recovered; quarantine lifted";
  };

  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (cv_.wait_for(lk, period, [&] { return stop_; })) break;

    for (int s = 0; s < nshards; ++s) {
      const std::size_t si = static_cast<std::size_t>(s);
      const std::uint64_t hb = sched_->shard_heartbeat(s);
      if (hb != last_hb[si]) {
        // Progress resumed: reset the escalation ladder and re-admit the
        // shard if a previous incident quarantined it.
        last_hb[si] = hb;
        ticks[si] = 0;
        readmit(s);
        continue;
      }
      if (sched_->shard_backlog(s) == 0) {
        // Heartbeat frozen but nothing owed: the idle-parked signature. A
        // quarantined shard in this state drained what it was quarantined
        // for — a slow dispatcher can clear its whole backlog within the
        // loop iteration the quarantine sampled, then park without another
        // heartbeat — so it is re-admitted rather than left out for good.
        ticks[si] = 0;
        readmit(s);
        continue;
      }
      ++ticks[si];
      if (ticks[si] == 1) {
        warnings_.fetch_add(1, std::memory_order_relaxed);
        PLT_LOG_WARN << "watchdog: shard " << s
                     << " dispatcher stalled (backlog "
                     << sched_->shard_backlog(s) << ", heartbeat frozen at "
                     << hb << ")";
      }
      if (ticks[si] == cfg_.quarantine_ticks &&
          !sched_->shard_quarantined(s)) {
        sched_->set_shard_quarantined(s, true);
        quarantines_.fetch_add(1, std::memory_order_relaxed);
        PLT_LOG_WARN << "watchdog: shard " << s
                     << " quarantined; rerouting new admissions";
      }
      if (ticks[si] >= cfg_.restart_ticks) {
        // Escalation ceiling: move the shard's sessions to healthy
        // partitions, then replace the wedged thread. Sampling continues
        // from a fresh ladder — if the replacement wedges too (chaos specs
        // without a fire cap), the same escalation runs again.
        const int moved = fail_over(s);
        if (sched_->restart_dispatcher(s)) {
          restarts_.fetch_add(1, std::memory_order_relaxed);
          PLT_LOG_WARN << "watchdog: shard " << s
                       << " dispatcher restarted (failed over " << moved
                       << " sessions)";
          // The restart IS the recovery: lift the quarantine here, not on
          // the next heartbeat advance — a fast replacement can drain the
          // backlog and park before this thread samples again, and a parked
          // (frozen-heartbeat, zero-backlog) shard would stay quarantined
          // forever if re-admission waited for visible progress.
          readmit(s);
        }
        last_hb[si] = sched_->shard_heartbeat(s);
        ticks[si] = 0;
      }
    }

    // External probes: warn-only, edge-triggered per incident.
    for (Probe& p : probes_) {
      if (!p.epoch) continue;
      const std::uint64_t e = p.epoch();
      const std::size_t backlog = p.backlog ? p.backlog() : 0;
      if (e != p.last || backlog == 0) {
        p.last = e;
        p.stalled = false;
        continue;
      }
      if (!p.stalled) {
        p.stalled = true;
        probe_warnings_.fetch_add(1, std::memory_order_relaxed);
        PLT_LOG_WARN << "watchdog: probe '" << p.name
                     << "' stalled (epoch frozen at " << e << ", backlog "
                     << backlog << ")";
      }
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace plt::serving
