// Execution-runtime seam for PARLOOPER's generated loops (Section II-B uses
// OpenMP in the paper's POC). Three interchangeable backends provide the
// same parallel_region(fn(tid, nthreads)) semantics, selected by the
// PLT_RUNTIME environment variable or set_runtime():
//
//   pool    persistent pinned thread pool (default) — region dispatch is an
//           atomic epoch bump, no per-call thread spawn (thread_pool.hpp)
//   omp     one OpenMP parallel region per call (the paper's POC behaviour)
//   serial  single-threaded, for debugging and reference runs
//
// All three produce bitwise-identical results: iteration partitioning is a
// pure function of (tid, nthreads) and each output block is owned by one
// thread with a fixed sequential reduction order.
#pragma once

#if defined(PLT_HAVE_OPENMP)
#include <omp.h>
#endif

#include <exception>
#include <mutex>
#include <type_traits>

#include "common/thread_pool.hpp"

namespace plt {

// Team size the next parallel_region will use under the current runtime.
inline int max_threads() {
  switch (runtime()) {
    case Runtime::kSerial:
      return 1;
    case Runtime::kOpenMP:
#if defined(PLT_HAVE_OPENMP)
      return omp_get_max_threads();
#else
      return 1;
#endif
    case Runtime::kPool:
      return ThreadPool::instance().size();
  }
  return 1;
}

inline int thread_id() {
  const detail::RegionContext& ctx = detail::region_context();
  if (ctx.active) return ctx.tid;
#if defined(PLT_HAVE_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

inline int num_threads_in_region() {
  const detail::RegionContext& ctx = detail::region_context();
  if (ctx.active) return ctx.nthreads;
#if defined(PLT_HAVE_OPENMP)
  return omp_get_num_threads();
#else
  return 1;
#endif
}

inline void thread_barrier() {
  const detail::RegionContext& ctx = detail::region_context();
  if (ctx.active) {
    if (ctx.pool != nullptr && ctx.nthreads > 1) ctx.pool->barrier(ctx.tid);
    return;
  }
#if defined(PLT_HAVE_OPENMP)
#pragma omp barrier
#endif
}

// Runs fn(tid, nthreads) on one pool partition's sub-team; regions on
// distinct partitions execute concurrently (the serving layer runs one
// per-partition batch on each). width sizes the region as for
// parallel_region, clamped to the sub-team. Under non-pool runtimes this is
// exactly parallel_region(fn, width). Returns false when the region degraded
// to a serial call (nested dispatch, busy partition) — results are identical
// either way, only concurrency is lost.
template <typename Fn>
bool parallel_region_on(int partition, Fn&& fn, int width = 0);

// Runs fn(tid, nthreads) once per region member under the current runtime.
// The region has min(width, max_threads()) members (width <= 0 = the whole
// team); the pool wakes only those.
template <typename Fn>
void parallel_region(Fn&& fn, int width = 0) {
  switch (runtime()) {
    case Runtime::kSerial:
      break;
    case Runtime::kOpenMP: {
#if defined(PLT_HAVE_OPENMP)
      // OMP's own introspection serves thread_id()/thread_barrier() here, so
      // no RegionContext is installed. Exception firewall: an exception may
      // not escape an OpenMP region, so the first one is captured and
      // rethrown on the calling thread. Caveat (unlike the pool backend):
      // OpenMP barriers are all-or-none, so a body that throws BEFORE a
      // barrier its surviving teammates wait at deadlocks under omp — bodies
      // with internal barriers must catch per work item (serving does).
      std::exception_ptr region_exc;
      std::mutex exc_mu;
      const int team = omp_get_max_threads();
      const int members = width <= 0 || width > team ? team : width;
#pragma omp parallel num_threads(members)
      {
        try {
          fn(omp_get_thread_num(), omp_get_num_threads());
        } catch (...) {
          std::lock_guard<std::mutex> g(exc_mu);
          if (!region_exc) region_exc = std::current_exception();
        }
      }
      if (region_exc) std::rethrow_exception(region_exc);
      return;
#else
      break;  // no OpenMP in this build: serial fallback
#endif
    }
    case Runtime::kPool: {
      using FnT = std::remove_reference_t<Fn>;
      ThreadPool::instance().run(
          [](void* c, int tid, int nthreads) {
            (*static_cast<FnT*>(c))(tid, nthreads);
          },
          const_cast<void*>(static_cast<const void*>(&fn)), width);
      return;
    }
  }
  fn(0, 1);
}

template <typename Fn>
bool parallel_region_on(int partition, Fn&& fn, int width) {
  if (runtime() != Runtime::kPool) {
    // Nested dispatch degrades parallel_region to a serial call on every
    // backend; report it so the return contract holds on fallback paths.
    const bool nested = detail::region_context().active;
    parallel_region(std::forward<Fn>(fn), width);
    return !nested;
  }
  // Always dispatch through run_on: on a 1-partition pool, partition 0 IS
  // the whole team (same tids, same leaf barrier), and run_on's return
  // value reports busy-dispatch degradation that a parallel_region fallback
  // would swallow.
  using FnT = std::remove_reference_t<Fn>;
  return ThreadPool::instance().run_on(
      partition,
      [](void* c, int tid, int nthreads) {
        (*static_cast<FnT*>(c))(tid, nthreads);
      },
      const_cast<void*>(static_cast<const void*>(&fn)), width);
}

// Partition count of the active execution backend: the process-wide pool's
// under PLT_RUNTIME=pool, 1 otherwise (no other backend is partitioned).
// Shared by the serving layer and the benches so the rule lives here once.
inline int pool_partitions() {
  return runtime() == Runtime::kPool ? ThreadPool::instance().partitions()
                                     : 1;
}

}  // namespace plt
