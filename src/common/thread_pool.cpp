#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/topology.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(PLT_HAVE_OPENMP)
#include <omp.h>
#endif

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define PLT_CPU_PAUSE() _mm_pause()
#else
#define PLT_CPU_PAUSE() std::this_thread::yield()
#endif

namespace plt {

namespace {

// Spin budget before parking/yielding. Small enough that an oversubscribed
// team (more threads than cores) converges quickly to yield-based waiting.
constexpr int kSpinIters = 1 << 12;

// Epoch word: (sequence << 16) | members of the partition in the region.
// A worker that is never a member keeps a stale `seen` across regions, so
// the 48-bit sequence must never wrap back onto it.
constexpr int kWidthBits = 16;
constexpr std::uint64_t kWidthMask = (std::uint64_t{1} << kWidthBits) - 1;

int clamp_width(int width, int team) {
  return width <= 0 || width > team ? team : width;
}

void pin_to_core(int core) {
#if defined(__linux__)
  if (core < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

// Cores the process is actually allowed to run on (sorted). Empty when the
// platform offers no affinity introspection.
std::vector<int> allowed_cores() {
  std::vector<int> cores;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cores.push_back(c);
    }
  }
#endif
  return cores;
}

bool pinning_enabled() {
  static const bool v = common::env_flag("PLT_PIN", true);
  return v;
}

// Installs a thread-local region context and restores the previous one even
// when the region body throws: serial, degraded, nested and
// caller-participates paths all propagate exceptions through the frame that
// set the context. A leaked active context would degrade every later region
// to serial; a nested region that kept its enclosing context would route its
// barriers into the enclosing team's and wait forever.
struct ScopedRegionContext {
  explicit ScopedRegionContext(const detail::RegionContext& v)
      : saved(detail::region_context()) {
    detail::region_context() = v;
  }
  ~ScopedRegionContext() { detail::region_context() = saved; }
  const detail::RegionContext saved;
  ScopedRegionContext(const ScopedRegionContext&) = delete;
  ScopedRegionContext& operator=(const ScopedRegionContext&) = delete;
};

}  // namespace

namespace detail {
RegionContext& region_context() {
  thread_local RegionContext ctx;
  return ctx;
}
}  // namespace detail

ThreadPool::ThreadPool(int nthreads, bool pin, int partitions)
    : nthreads_(nthreads < 1 ? 1 : nthreads), pin_(pin) {
  const common::Topology topo = common::Topology::detect();
  if (partitions > nthreads_) {
    PLT_LOG_WARN << "pool: " << partitions << " partitions requested for a "
                 << nthreads_ << "-thread team; clamping to " << nthreads_;
  }
  nparts_ = partitions > 0 ? partitions : static_cast<int>(topo.nodes.size());
  nparts_ = std::max(1, std::min(nparts_, nthreads_));

  // Contiguous, balanced sub-teams: partition p holds global tids
  // [first, first + count). The split is a pure function of (nthreads,
  // nparts), independent of the machine.
  parts_.reserve(static_cast<std::size_t>(nparts_));
  part_of_.assign(static_cast<std::size_t>(nthreads_), 0);
  local_of_.assign(static_cast<std::size_t>(nthreads_), 0);
  const int base = nthreads_ / nparts_, rem = nthreads_ % nparts_;
  int first = 0;
  for (int p = 0; p < nparts_; ++p) {
    auto part = std::make_unique<Partition>();
    part->first = first;
    part->count = base + (p < rem ? 1 : 0);
    PLT_CHECK(static_cast<std::uint64_t>(part->count) <= kWidthMask,
              "pool partition too large for the epoch word's member count");
    part->slots = std::make_unique<WakeSlot[]>(
        static_cast<std::size_t>(part->count));
    for (int l = 0; l < part->count; ++l) {
      part_of_[static_cast<std::size_t>(first + l)] = p;
      local_of_[static_cast<std::size_t>(first + l)] = l;
    }
    first += part->count;
    parts_.push_back(std::move(part));
  }

  // Pin plan: partition p's members bind to its node's cores, filtered by
  // the process affinity mask; the 1-partition fallback binds by the
  // enumerated online-core list (not `i % hardware_concurrency`, which
  // ignores offline/forbidden cores). If the mask holds fewer cores than
  // the team, pinning is skipped entirely — stacking a whole team onto a
  // restricted mask would serialize it behind the scheduler.
  if (pin_ && pinning_enabled()) {
    const std::vector<int> allowed = allowed_cores();
    if (static_cast<int>(allowed.size()) < nthreads_) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        PLT_LOG_WARN << "pool: affinity mask has " << allowed.size()
                     << " cores for a " << nthreads_
                     << "-thread team; skipping thread pinning";
      }
    } else {
      // Node -> partition mapping. With at least as many partitions as
      // nodes, partition p lives on node p % nodes, and co-located
      // partitions slice that node's cores via a per-node cursor (two
      // sub-teams meant to run concurrently must not time-share the node's
      // leading cores). With FEWER partitions than nodes, each partition
      // takes a contiguous node range so the whole machine stays in use —
      // the 1-partition case degenerates to the full enumerated online-core
      // list. Partitions whose node cores fall outside the affinity mask
      // (mocked/foreign topology) share a cursor over the allowed list, so
      // their slices stay disjoint too.
      const std::size_t nnodes = topo.nodes.size();
      std::vector<std::size_t> node_cursor(nnodes, 0);
      // Fallback assignment (partition's node cores all outside the mask)
      // must not collide with cores that node-based partitions pin —
      // stacking two sub-teams onto one core slice serializes exactly the
      // regions run_on() exists to run concurrently. Node-based partitions
      // are therefore assigned FIRST (marking their cores), and fallback
      // partitions then draw from whatever remains.
      std::vector<bool> core_taken(allowed.size(), false);
      const auto mark_taken = [&](int core) {
        const auto it =
            std::lower_bound(allowed.begin(), allowed.end(), core);
        if (it != allowed.end() && *it == core) {
          core_taken[static_cast<std::size_t>(it - allowed.begin())] = true;
        }
      };
      std::size_t allowed_cursor = 0;
      const auto next_free_core = [&]() -> int {
        for (std::size_t i = 0; i < allowed.size(); ++i) {
          const std::size_t idx = (allowed_cursor + i) % allowed.size();
          if (!core_taken[idx]) {
            allowed_cursor = idx + 1;
            core_taken[idx] = true;
            return allowed[idx];
          }
        }
        // Every allowed core already has an owner: round-robin the overflow.
        return allowed[allowed_cursor++ % allowed.size()];
      };
      // Pass 1: per-partition mask-filtered core lists from the node map.
      std::vector<std::vector<int>> part_cores(
          static_cast<std::size_t>(nparts_));
      std::vector<std::size_t> part_node(static_cast<std::size_t>(nparts_),
                                         0);
      for (int p = 0; p < nparts_; ++p) {
        std::vector<std::size_t> node_idxs;
        if (static_cast<std::size_t>(nparts_) >= nnodes) {
          node_idxs.push_back(static_cast<std::size_t>(p) % nnodes);
        } else {
          const std::size_t lo =
              static_cast<std::size_t>(p) * nnodes /
              static_cast<std::size_t>(nparts_);
          const std::size_t hi =
              (static_cast<std::size_t>(p) + 1) * nnodes /
              static_cast<std::size_t>(nparts_);
          for (std::size_t n = lo; n < hi; ++n) node_idxs.push_back(n);
        }
        part_node[static_cast<std::size_t>(p)] = node_idxs[0];
        for (std::size_t n : node_idxs) {
          for (int c : topo.nodes[n].cpus) {
            if (std::binary_search(allowed.begin(), allowed.end(), c)) {
              part_cores[static_cast<std::size_t>(p)].push_back(c);
            }
          }
        }
      }
      // Pass 2: node-based partitions pin (and claim) their cores. Members
      // that overflow an exhausted node (more members mapped to it than the
      // mask offers) are deferred alongside the foreign-topology partitions
      // so they only take cores no node cursor will claim.
      std::vector<std::pair<int, int>> deferred;  // (partition, local slot)
      for (int p = 0; p < nparts_; ++p) {
        const std::vector<int>& cores = part_cores[static_cast<std::size_t>(p)];
        Partition& part = *parts_[static_cast<std::size_t>(p)];
        part.pin_cores.assign(static_cast<std::size_t>(part.count), -1);
        if (cores.empty()) {
          for (int l = 0; l < part.count; ++l) deferred.emplace_back(p, l);
          continue;
        }
        for (int l = 0; l < part.count; ++l) {
          int core = -1;
          if (static_cast<std::size_t>(nparts_) >= nnodes) {
            // Co-located siblings slice the node via its cursor.
            std::size_t& cur =
                node_cursor[part_node[static_cast<std::size_t>(p)]];
            if (cur < cores.size()) core = cores[cur++];
          } else if (static_cast<std::size_t>(l) < cores.size()) {
            // Exclusive node range: no sibling shares these cores.
            core = cores[static_cast<std::size_t>(l)];
          }
          if (core >= 0) {
            mark_taken(core);
            part.pin_cores[static_cast<std::size_t>(l)] = core;
          } else {
            deferred.emplace_back(p, l);
          }
        }
      }
      // Pass 3: deferred members take the leftovers — off-node placement
      // beats two concurrent sub-team members time-sharing one core.
      for (const auto& [p, l] : deferred) {
        parts_[static_cast<std::size_t>(p)]
            ->pin_cores[static_cast<std::size_t>(l)] = next_free_core();
      }
    }
  }

  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int g = 1; g < nthreads_; ++g) {
    workers_.emplace_back([this, g] { worker_main(g); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& part : parts_) {
    for (int l = 0; l < part->count; ++l) {
      WakeSlot& slot = part->slots[static_cast<std::size_t>(l)];
      {
        std::lock_guard<std::mutex> g(slot.mu);
      }
      slot.cv.notify_one();
    }
  }
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::partition_size(int p) const {
  if (p < 0 || p >= nparts_) return 0;
  return parts_[static_cast<std::size_t>(p)]->count;
}

void ThreadPool::worker_main(int g) {
  const int p = part_of_[static_cast<std::size_t>(g)];
  const int l = local_of_[static_cast<std::size_t>(g)];
  Partition& part = *parts_[static_cast<std::size_t>(p)];
  WakeSlot& slot = part.slots[static_cast<std::size_t>(l)];
  if (!part.pin_cores.empty()) {
    pin_to_core(part.pin_cores[static_cast<std::size_t>(l)]);
  }

  std::uint64_t seen = 0;
  int spins = 0;
  while (true) {
    // Wait for the next region (or shutdown): spin briefly, then park on
    // this member's own slot. The spin budget carries over regions this
    // worker is not a member of, so skipping one costs no fresh spin.
    std::uint64_t word;
    while ((word = part.epoch.load(std::memory_order_acquire)) == seen &&
           !shutdown_.load(std::memory_order_acquire)) {
      if (++spins < kSpinIters) {
        PLT_CPU_PAUSE();
      } else {
        // parked/epoch form a store-load pair with publish(), which stores
        // the epoch and then reads parked: one of the two sides sees the
        // other, so a wake-up is never lost.
        std::unique_lock<std::mutex> lk(slot.mu);
        slot.parked.store(true, std::memory_order_seq_cst);
        slot.cv.wait(lk, [&] {
          return part.epoch.load(std::memory_order_seq_cst) != seen ||
                 shutdown_.load(std::memory_order_acquire);
        });
        slot.parked.store(false, std::memory_order_relaxed);
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = word;
    const int members = static_cast<int>(word & kWidthMask);
    if (l >= members) continue;  // not a member: fn/ctx are not ours to read
    spins = 0;

    // Exception firewall: anything escaping fn here would otherwise reach
    // the top of this thread and std::terminate. RegionAborted is the
    // barrier-unwind marker, not a failure in itself.
    const Scope scope = part.scope;
    const int tid = scope == Scope::kTeam ? g : l;
    {
      ScopedRegionContext ctx({this, tid, part.nthreads, true,
                               scope == Scope::kTeam ? -1 : p});
      try {
        part.fn(part.ctx, tid, part.nthreads);
      } catch (const detail::RegionAborted&) {
      } catch (...) {
        record_region_exception(scope, part);
      }
    }

    if (part.done.fetch_add(1, std::memory_order_acq_rel) ==
        workers_of(p, members) - 1) {
      // Last member: release the dispatcher if it fell asleep.
      std::lock_guard<std::mutex> guard(part.done_mu);
      part.done_cv.notify_one();
    }
  }
}

void ThreadPool::record_region_exception(Scope scope, Partition& part) {
  if (scope == Scope::kTeam) {
    {
      std::lock_guard<std::mutex> g(team_exc_mu_);
      if (!team_exc_) team_exc_ = std::current_exception();
    }
    team_abort_.store(true, std::memory_order_release);
  } else {
    {
      std::lock_guard<std::mutex> g(part.exc_mu);
      if (!part.exc) part.exc = std::current_exception();
    }
    part.abort.store(true, std::memory_order_release);
  }
}

void ThreadPool::publish(Partition& part, int p, Scope scope, RegionFn fn,
                         void* ctx, int members, int nthreads) {
  part.fn = fn;
  part.ctx = ctx;
  part.scope = scope;
  part.nthreads = nthreads;
  // Clear partition-scope firewall state from any previous run_on() region
  // before members can observe the new epoch.
  part.abort.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(part.exc_mu);
    part.exc = nullptr;
  }
  part.done.store(0, std::memory_order_relaxed);
  // Only the dispatcher owning dispatch_mu writes the word, so a plain
  // load + store advances the sequence.
  const std::uint64_t seq =
      (part.epoch.load(std::memory_order_relaxed) >> kWidthBits) + 1;
  part.epoch.store((seq << kWidthBits) | static_cast<std::uint64_t>(members),
                   std::memory_order_seq_cst);
  // Wake the parked members only; spinning ones see the store. Pairs with
  // the parked/epoch check in worker_main.
  for (int l = p == 0 ? 1 : 0; l < members; ++l) {
    WakeSlot& slot = part.slots[static_cast<std::size_t>(l)];
    if (slot.parked.load(std::memory_order_seq_cst)) {
      {
        std::lock_guard<std::mutex> g(slot.mu);
      }
      slot.cv.notify_one();
    }
  }
}

void ThreadPool::wait_partition_done(Partition& part, int p, int members) {
  const int expected = workers_of(p, members);
  int spins = 0;
  while (part.done.load(std::memory_order_acquire) != expected) {
    if (++spins < kSpinIters) {
      PLT_CPU_PAUSE();
    } else {
      std::unique_lock<std::mutex> lk(part.done_mu);
      part.done_cv.wait(lk, [&] {
        return part.done.load(std::memory_order_acquire) == expected;
      });
    }
  }
  part.fn = nullptr;
  part.ctx = nullptr;
}

void ThreadPool::run_nested(RegionFn fn, void* ctx) {
  // Nested dispatch degrades to a serial region (OpenMP nesting-off). It is
  // a region of its own: a barrier inside it must not reach the enclosing
  // team's barrier, which the other members will never arrive at.
  serial_degradations_.fetch_add(1, std::memory_order_relaxed);
  ScopedRegionContext src({this, 0, 1, true, -1});
  fn(ctx, 0, 1);
}

void ThreadPool::run(RegionFn fn, void* ctx, int width) {
  if (detail::region_context().active) {
    run_nested(fn, ctx);
    return;
  }
  width = clamp_width(width, nthreads_);
  if (width == 1) {
    team_regions_.fetch_add(1, std::memory_order_relaxed);
    ScopedRegionContext src({this, 0, 1, true, -1});
    fn(ctx, 0, 1);  // exceptions propagate to the caller directly
    return;
  }

  // One team, one dispatcher: a second application thread dispatching while
  // the team is busy runs its region serially instead of racing on the
  // dispatch state (which would deadlock) or convoying behind the first.
  // A run() region claims every partition holding one of its members (always
  // partition 0, so two run() regions never overlap), and so excludes (and
  // is excluded by) concurrent run_on() dispatchers on those partitions.
  const int nparts = part_of_[static_cast<std::size_t>(width - 1)] + 1;
  int locked = 0;
  for (; locked < nparts; ++locked) {
    if (!parts_[static_cast<std::size_t>(locked)]->dispatch_mu.try_lock()) {
      break;
    }
  }
  if (locked < nparts) {
    for (int p = 0; p < locked; ++p) {
      parts_[static_cast<std::size_t>(p)]->dispatch_mu.unlock();
    }
    serial_degradations_.fetch_add(1, std::memory_order_relaxed);
    ScopedRegionContext src({this, 0, 1, true, -1});
    fn(ctx, 0, 1);
    return;
  }

  team_regions_.fetch_add(1, std::memory_order_relaxed);
  team_abort_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(team_exc_mu_);
    team_exc_ = nullptr;
  }
  for (int p = 0; p < nparts; ++p) {
    Partition& part = *parts_[static_cast<std::size_t>(p)];
    publish(part, p, Scope::kTeam, fn, ctx, members_in(part, width), width);
  }

  {
    ScopedRegionContext src({this, 0, width, true, -1});
    try {
      fn(ctx, 0, width);
    } catch (const detail::RegionAborted&) {
    } catch (...) {
      record_region_exception(Scope::kTeam, *parts_[0]);
    }
  }

  for (int p = 0; p < nparts; ++p) {
    Partition& part = *parts_[static_cast<std::size_t>(p)];
    wait_partition_done(part, p, members_in(part, width));
  }

  // Every member has retired: harvest the firewall state. Barrier episodes
  // interrupted by the abort left waiting counters mid-episode; reset them
  // so the next region starts clean (generation counters need no reset —
  // they only advance on a completed release).
  std::exception_ptr exc;
  if (team_abort_.load(std::memory_order_acquire)) {
    for (int p = 0; p < nparts; ++p) {
      parts_[static_cast<std::size_t>(p)]->leaf_waiting.store(
          0, std::memory_order_relaxed);
    }
    root_waiting_.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> g(team_exc_mu_);
    exc = team_exc_;
    team_exc_ = nullptr;
    team_abort_.store(false, std::memory_order_relaxed);
  }
  for (int p = 0; p < nparts; ++p) {
    parts_[static_cast<std::size_t>(p)]->dispatch_mu.unlock();
  }
  if (exc) std::rethrow_exception(exc);
}

bool ThreadPool::run_on(int p, RegionFn fn, void* ctx, int width) {
  if (detail::region_context().active) {
    run_nested(fn, ctx);
    return false;
  }
  if (p < 0 || p >= nparts_) p = ((p % nparts_) + nparts_) % nparts_;
  Partition& part = *parts_[static_cast<std::size_t>(p)];
  width = clamp_width(width, part.count);

  const bool caller_participates = (p == 0);
  if (width == 1 && caller_participates) {
    // One member on partition 0: the caller is the whole region.
    part.regions.fetch_add(1, std::memory_order_relaxed);
    ScopedRegionContext src({this, 0, 1, true, p});
    fn(ctx, 0, 1);  // exceptions propagate to the caller directly
    return true;
  }
  if (!part.dispatch_mu.try_lock()) {
    serial_degradations_.fetch_add(1, std::memory_order_relaxed);
    ScopedRegionContext src({this, 0, 1, true, p});
    fn(ctx, 0, 1);
    return false;
  }
  std::lock_guard<std::mutex> guard(part.dispatch_mu, std::adopt_lock);

  part.regions.fetch_add(1, std::memory_order_relaxed);
  publish(part, p, Scope::kPartition, fn, ctx, width, width);
  if (caller_participates) {
    ScopedRegionContext src({this, 0, width, true, p});
    try {
      fn(ctx, 0, width);
    } catch (const detail::RegionAborted&) {
    } catch (...) {
      record_region_exception(Scope::kPartition, part);
    }
  }
  wait_partition_done(part, p, width);

  // Harvest the partition firewall (see run()); dispatch_mu is released by
  // the adopt_lock guard during unwinding, so rethrowing here is safe.
  if (part.abort.load(std::memory_order_acquire)) {
    part.leaf_waiting.store(0, std::memory_order_relaxed);
    std::exception_ptr exc;
    {
      std::lock_guard<std::mutex> g(part.exc_mu);
      exc = part.exc;
      part.exc = nullptr;
    }
    part.abort.store(false, std::memory_order_relaxed);
    if (exc) std::rethrow_exception(exc);
  }
  return true;
}

void ThreadPool::leaf_barrier(Partition& part, Scope scope, int arrivals,
                              int roots) {
  // Abort-aware: a member that threw never arrives, so anyone waiting on it
  // would spin forever. Waiters poll the region's abort flag and unwind via
  // RegionAborted; the dispatcher resets the mid-episode waiting counters
  // once every member has retired.
  if (region_aborted(scope, part)) throw detail::RegionAborted{};
  const std::uint64_t gen = part.leaf_gen.load(std::memory_order_acquire);
  if (part.leaf_waiting.fetch_add(1, std::memory_order_acq_rel) ==
      arrivals - 1) {
    // Partition representative: join the root before releasing the leaf so
    // the episode orders every member of every partition. Hierarchical
    // episodes are counted once at the root release (not per leaf), so the
    // stat is comparable across partition counts.
    if (roots > 1) {
      root_barrier(roots);
    } else {
      barrier_epochs_.fetch_add(1, std::memory_order_relaxed);
    }
    part.leaf_waiting.store(0, std::memory_order_relaxed);
    part.leaf_gen.store(gen + 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (part.leaf_gen.load(std::memory_order_acquire) == gen) {
      if (region_aborted(scope, part)) throw detail::RegionAborted{};
      // Yield past the spin budget so oversubscribed teams make progress.
      if (++spins < kSpinIters) {
        PLT_CPU_PAUSE();
      } else {
        std::this_thread::yield();
      }
    }
  }
}

void ThreadPool::root_barrier(int roots) {
  // Only reached from team-scope episodes; partition 0 is a placeholder for
  // the scope-matched abort check.
  if (region_aborted(Scope::kTeam, *parts_[0])) throw detail::RegionAborted{};
  const std::uint64_t gen = root_gen_.load(std::memory_order_acquire);
  if (root_waiting_.fetch_add(1, std::memory_order_acq_rel) == roots - 1) {
    barrier_epochs_.fetch_add(1, std::memory_order_relaxed);
    root_waiting_.store(0, std::memory_order_relaxed);
    root_gen_.store(gen + 1, std::memory_order_release);
  } else {
    int spins = 0;
    while (root_gen_.load(std::memory_order_acquire) == gen) {
      if (region_aborted(Scope::kTeam, *parts_[0])) {
        throw detail::RegionAborted{};
      }
      if (++spins < kSpinIters) {
        PLT_CPU_PAUSE();
      } else {
        std::this_thread::yield();
      }
    }
  }
}

void ThreadPool::barrier(int tid) {
  const detail::RegionContext& rc = detail::region_context();
  const int width = rc.active ? rc.nthreads : nthreads_;
  if (width <= 1) return;  // serial/degraded/one-member region
  if (rc.active && rc.partition >= 0) {
    leaf_barrier(*parts_[static_cast<std::size_t>(rc.partition)],
                 Scope::kPartition, width, 1);
    return;
  }
  // run() region: tid is the global slot; members 0..width-1 synchronize
  // hierarchically across the partitions they span.
  Partition& part =
      *parts_[static_cast<std::size_t>(part_of_[static_cast<std::size_t>(tid)])];
  leaf_barrier(part, Scope::kTeam, members_in(part, width),
               part_of_[static_cast<std::size_t>(width - 1)] + 1);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.team_regions = team_regions_.load(std::memory_order_relaxed);
  s.serial_degradations =
      serial_degradations_.load(std::memory_order_relaxed);
  s.barrier_epochs = barrier_epochs_.load(std::memory_order_relaxed);
  s.partition.reserve(static_cast<std::size_t>(nparts_));
  for (const auto& part : parts_) {
    PartitionCounters c;
    c.regions = part->regions.load(std::memory_order_relaxed);
    c.steals = part->steals.load(std::memory_order_relaxed);
    s.partition.push_back(c);
  }
  return s;
}

void ThreadPool::pin_caller_to_partition(int p) {
  if (p < 0 || p >= nparts_) return;
  const Partition& part = *parts_[static_cast<std::size_t>(p)];
  if (part.pin_cores.empty()) return;
#if defined(__linux__)
  // The whole partition's core set, not a single core: every specific core
  // is owned by a pinned worker, and hard-binding the dispatcher onto one of
  // them would make its spin/wake loops contend with that worker's compute.
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : part.pin_cores) {
    if (c >= 0) CPU_SET(static_cast<unsigned>(c), &set);
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
#endif
}

void ThreadPool::note_steal(int p) {
  if (p < 0 || p >= nparts_) return;
  parts_[static_cast<std::size_t>(p)]->steals.fetch_add(
      1, std::memory_order_relaxed);
}

int ThreadPool::default_size() {
  // 0 = unset: fall through to the OpenMP/hardware defaults below.
  const int n = static_cast<int>(
      common::env_int("PLT_NUM_THREADS", 0, 1, 1 << 14));
  if (n >= 1) return n;
#if defined(PLT_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
#endif
}

ThreadPool& ThreadPool::instance() {
  // Leaked on purpose: worker threads must not be joined during static
  // destruction (kernels may still run in atexit handlers).
  static ThreadPool* pool = new ThreadPool(
      default_size(), /*pin=*/true,
      static_cast<int>(common::env_int("PLT_POOL_PARTITIONS", 0, 0, 1 << 12)));
  return *pool;
}

namespace {

Runtime runtime_from_env() {
  const std::string v =
      common::env_enum("PLT_RUNTIME", "pool", {"serial", "omp", "pool"});
  if (v == "serial") return Runtime::kSerial;
  if (v == "omp") return Runtime::kOpenMP;
  return Runtime::kPool;
}

std::atomic<Runtime>& runtime_state() {
  static std::atomic<Runtime> r{runtime_from_env()};
  return r;
}

}  // namespace

Runtime runtime() { return runtime_state().load(std::memory_order_relaxed); }

void set_runtime(Runtime r) {
  runtime_state().store(r, std::memory_order_relaxed);
}

const char* runtime_name(Runtime r) {
  switch (r) {
    case Runtime::kSerial: return "serial";
    case Runtime::kOpenMP: return "omp";
    case Runtime::kPool: return "pool";
  }
  return "?";
}

}  // namespace plt
