// Persistent worker-thread pool: the PLT_RUNTIME=pool execution backend.
//
// The paper's performance thesis is that PARLOOPER adds near-zero overhead
// per nest invocation (Section II-B: loop-nest plans are cached, so
// steady-state dispatch is a lookup). An OpenMP `#pragma omp parallel` per
// nest call undermines that for small nests: every invocation pays region
// spawn/join. This pool keeps one process-wide team of pinned threads alive;
// dispatching a region is an atomic epoch bump per partition, and in-region
// barriers are cache-line-padded generation counters — no kernel transitions
// on the steady-state path (workers spin briefly, then park on their own
// wake slot so an idle process does not burn CPU).
//
// Topology-aware partitioning. The team is split into contiguous sub-teams
// (partitions), one per NUMA node by default (common/topology.hpp;
// PLT_POOL_PARTITIONS overrides the count so the layout is exercisable on
// single-node machines). Each partition's workers pin to its node's cores,
// the run() region barrier is hierarchical (per-partition leaf + one
// cross-partition root), and run_on(p, fn, ctx) dispatches a region onto a
// single partition so independent regions — e.g. per-partition serving
// batches — execute concurrently instead of serializing on one team.
//
// Semantics match plt::parallel_region(fn): fn(tid, nthreads) runs once per
// region member, tid 0 being the dispatching thread. Partitioning of loop
// iterations is a pure function of (tid, nthreads), so results are
// bitwise-identical across partition counts for a fixed team size. Nested
// dispatch from inside a region degrades to a serial call on a one-member
// region of its own (its barriers are no-ops), like OpenMP with nesting off;
// a run_on() whose partition is busy degrades the same way.
//
// Width-sized regions. Every dispatch names its member count: members
// 0..width-1 run fn(ctx, tid, width) and in-region barriers count width
// arrivals. Everyone else is neither woken nor waited for — each worker
// parks on its own wake slot, and the dispatcher signals only members. A
// worker spinning when the epoch moves reads the region's width from the
// epoch word and, if it is not a member, goes back to waiting without
// running anything. Width 1 on partition 0 runs on the caller with no
// wake-up at all. Width equal to the team is the plain whole-team dispatch;
// the serving layer sizes each batch region to its request count, so a
// batch of one never wakes the workers that have no request.
//
// Exception firewall. An exception escaping fn on a worker thread would hit
// the top of worker_main and call std::terminate — one poisoned nest body
// would kill every in-flight request in the process. Instead, the FIRST
// exception thrown by any team member is captured, the region is aborted
// (members blocked in a region barrier unwind instead of deadlocking on the
// thrower's missing arrival), the barrier/dispatch state is reset, and the
// exception is rethrown on the dispatching thread once every member has
// retired. The pool stays fully usable afterwards. Work other members
// completed after the abort point is unspecified (the region failed as a
// whole); serving keeps failures per-request by catching inside the body.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace plt {

class ThreadPool {
 public:
  using RegionFn = void (*)(void* ctx, int tid, int nthreads);

  // Spawns nthreads - 1 workers; the dispatching thread participates as
  // tid 0. pin=true binds each worker to a core of its partition's NUMA
  // node (enumerated online-core list in the 1-partition fallback; pinning
  // is skipped with one warning when the process affinity mask holds fewer
  // cores than the team). partitions=0 derives the count from the detected
  // topology; explicit values are clamped to [1, nthreads].
  explicit ThreadPool(int nthreads, bool pin = true, int partitions = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return nthreads_; }
  int partitions() const { return nparts_; }
  int partition_size(int p) const;

  // Runs fn(ctx, tid, w) on team members 0..w-1 and returns when all are
  // done, w = width clamped to [1, size()] (width <= 0 = the whole team).
  // Only the partitions holding members are claimed. Calls from inside an
  // active region (any pool) run fn(ctx, 0, 1) as a one-member region, as
  // does losing the dispatch race to another top-level dispatcher. If any
  // member throws, the region aborts and the first exception is rethrown
  // here (exception firewall above).
  void run(RegionFn fn, void* ctx, int width = 0);

  // Runs fn(ctx, tid, w) on members 0..w-1 of partition p's sub-team only,
  // w = width clamped to [1, partition_size(p)] (width <= 0 = the whole
  // sub-team); distinct partitions execute concurrently. On partition 0 the
  // caller participates as tid 0; on other partitions every member is a
  // pinned worker and the caller only dispatches and waits (so the compute
  // stays resident on the partition's node). Returns false when the region
  // degraded to a serial call on the caller (nested dispatch, or the
  // partition was busy).
  bool run_on(int p, RegionFn fn, void* ctx, int width = 0);

  // Barrier across the calling region's members: hierarchical (per-partition
  // leaf + cross-partition root) inside run() regions that span partitions,
  // a single leaf otherwise. Callable only from inside a region, by every
  // member; tid is the region-local thread id.
  void barrier(int tid);

  // Dispatch/synchronization counters, snapshot at any time. steals are
  // attributed by the serving layer (note_steal) when it executes work
  // stolen from another partition's queue on this one.
  struct PartitionCounters {
    std::uint64_t regions = 0;  // run_on dispatches onto this partition
    std::uint64_t steals = 0;
  };
  struct Stats {
    std::uint64_t team_regions = 0;          // run() dispatches, any width
    std::uint64_t serial_degradations = 0;   // nested / busy fallbacks
    // Completed barrier episodes: a hierarchical run() episode counts once
    // (at the root release), a single-leaf episode once.
    std::uint64_t barrier_epochs = 0;
    std::vector<PartitionCounters> partition;
  };
  Stats stats() const;
  void note_steal(int p);

  // Pins the calling thread onto partition p's core set (any core of the
  // sub-team, not one specific core — each specific core is owned by a
  // pinned worker). Used by per-partition serving dispatchers so the
  // dispatch and wait loops stay resident on the node they serve. No-op
  // when the pool built no pin plan (pinning disabled or mask too small).
  void pin_caller_to_partition(int p);

  // The process-wide pool used by parallel_region(). Created on first use
  // with default_size() threads and PLT_POOL_PARTITIONS partitions.
  static ThreadPool& instance();

  // PLT_NUM_THREADS env override, else OpenMP's max, else hardware cores.
  static int default_size();

 private:
  enum class Scope : int { kTeam = 0, kPartition = 1 };

  // One worker's park/wake slot: the dispatcher signals a parked member
  // individually, so parked non-members of a region stay asleep.
  struct WakeSlot {
    alignas(64) std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
  };

  // Per-partition dispatch + leaf-barrier state. Workers only ever touch
  // their own partition's cache lines on the steady-state path.
  struct Partition {
    int first = 0;  // global tid of the first member
    int count = 0;
    std::vector<int> pin_cores;  // per-member pin target; empty = no pinning
    std::unique_ptr<WakeSlot[]> slots;  // per member; slot 0 of p0 unused

    // Dispatch: workers watch the epoch word, (sequence << 16) | the number
    // of this partition's members in the region, so a worker learns whether
    // it is a member from the word alone. fn/ctx/scope/nthreads are
    // published before the epoch store and read only by members after
    // observing it (acquire). A new dispatch is only published after every
    // member of the previous one retired (the dispatcher's acquire on
    // `done`), so the plain fields never race.
    alignas(64) std::atomic<std::uint64_t> epoch{0};
    RegionFn fn = nullptr;
    void* ctx = nullptr;
    Scope scope = Scope::kTeam;
    int nthreads = 0;  // the region's nthreads as fn sees it
    alignas(64) std::atomic<int> done{0};

    // Leaf barrier (generation counter: robust to team- and partition-scope
    // episodes interleaving on the same leaf).
    alignas(64) std::atomic<std::uint64_t> leaf_gen{0};
    alignas(64) std::atomic<int> leaf_waiting{0};

    // Exception firewall state for run_on() (partition-scope) regions:
    // first-thrown exception + abort flag barrier waiters poll. Reset by
    // publish(); team-scope regions use the pool-level slots instead.
    std::atomic<bool> abort{false};
    std::mutex exc_mu;
    std::exception_ptr exc;

    std::mutex dispatch_mu;  // owner of the sub-team
    std::mutex done_mu;
    std::condition_variable done_cv;

    std::atomic<std::uint64_t> regions{0};
    std::atomic<std::uint64_t> steals{0};
  };

  void worker_main(int g);
  // Publishes a region to the first `members` members of partition p and
  // wakes exactly those that are parked; nthreads is what fn will be told.
  void publish(Partition& part, int p, Scope scope, RegionFn fn, void* ctx,
               int members, int nthreads);
  void wait_partition_done(Partition& part, int p, int members);
  // Nested dispatch: fn(ctx, 0, 1) on the caller inside a one-member region
  // context, restoring the enclosing region's context afterwards.
  void run_nested(RegionFn fn, void* ctx);
  // Records the first exception of the active region (team scope -> pool
  // slots, partition scope -> part's slots) and raises the abort flag.
  void record_region_exception(Scope scope, Partition& part);
  // True when the active region was aborted (scope-matched flag).
  bool region_aborted(Scope scope, const Partition& part) const {
    return scope == Scope::kTeam
               ? team_abort_.load(std::memory_order_acquire)
               : part.abort.load(std::memory_order_acquire);
  }
  static int workers_of(int p, int members) {
    // Partition 0's tid-0 slot is the dispatching thread, not a worker.
    return members - (p == 0 ? 1 : 0);
  }
  // Members of a width-wide run() region that live on `part` (global tids
  // 0..width-1 are the members).
  static int members_in(const Partition& part, int width) {
    return std::max(0, std::min(part.count, width - part.first));
  }
  // Leaf episode over `arrivals` members of `part`; a team-scope episode
  // spanning `roots` > 1 partitions also synchronizes at the root.
  void leaf_barrier(Partition& part, Scope scope, int arrivals, int roots);
  void root_barrier(int roots);

  int nthreads_;
  int nparts_;
  bool pin_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<int> part_of_;   // global tid -> partition index
  std::vector<int> local_of_;  // global tid -> partition-local tid
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};

  // Root barrier across partition representatives (run() regions spanning
  // more than one partition).
  alignas(64) std::atomic<std::uint64_t> root_gen_{0};
  alignas(64) std::atomic<int> root_waiting_{0};

  std::atomic<std::uint64_t> team_regions_{0};
  std::atomic<std::uint64_t> serial_degradations_{0};
  std::atomic<std::uint64_t> barrier_epochs_{0};

  // Exception firewall state for run() regions (see class comment).
  // Reset by run() before each dispatch; Partition::abort/exc are the
  // partition-scope equivalents for run_on().
  std::atomic<bool> team_abort_{false};
  std::mutex team_exc_mu_;
  std::exception_ptr team_exc_;
};

// Execution runtime selector shared with common/threading.hpp.
enum class Runtime { kSerial, kOpenMP, kPool };

// Current runtime: PLT_RUNTIME=omp|pool|serial (default pool), overridable
// programmatically (benchmarks flip it to compare backends in-process).
Runtime runtime();
void set_runtime(Runtime r);
const char* runtime_name(Runtime r);

namespace detail {
// Thrown out of ThreadPool barrier waits when the active region aborted
// (another member threw). Not derived from std::exception on purpose: region
// bodies that `catch (const std::exception&)` per work item must not swallow
// the unwind. worker_main and the dispatcher catch it at the region boundary.
struct RegionAborted {};

// Thread-local region context maintained by the active backend so that
// thread_id()/num_threads_in_region()/thread_barrier() work inside pool
// regions exactly as they do inside OpenMP regions. `partition` selects the
// barrier scope: -1 = run() region (tid is the global slot),
// >= 0 = run_on() region on that partition (tid is partition-local).
struct RegionContext {
  ThreadPool* pool = nullptr;
  int tid = 0;
  int nthreads = 1;
  bool active = false;
  int partition = -1;
};
RegionContext& region_context();
}  // namespace detail

}  // namespace plt
