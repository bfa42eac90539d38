// Collective execution inside one team region (the paper's Listing 2: every
// thread of one parallel region calls the nests, instead of every nest
// opening a region of its own).
//
//   parlooper::team_region([&](parlooper::TeamMember& m) {
//     m.single([&] { layernorm(x, normed); });         // tid 0, then barrier
//     q_nest.collective(m, body);                      // m's share, barrier
//     m.split(heads, [&](std::int64_t lo, std::int64_t hi) { ... });
//   });
//
// Every member of the region makes the same sequence of collective calls;
// each call partitions its work as a pure function of (tid, nthreads) and
// ends in a region barrier, so a composed step computes bitwise what the
// same calls made one region at a time compute.
//
// Failures keep to the barrier protocol. A member whose work throws records
// the exception (the first one wins), stops doing work, and still arrives at
// every barrier; the other members see the failure and skip their remaining
// work too. team_region() rethrows the recorded exception on the calling
// thread once every member has retired. This holds under every runtime —
// under omp, where a member that skipped a barrier would deadlock its
// teammates, too. So member code does all its work inside run() (single,
// split and collective nests do) and tests its preconditions with check();
// a throw that escapes a member body anyway is left to the runtime's region
// firewall, which under omp cannot release the teammates' barriers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/threading.hpp"

namespace plt::parlooper {

// Failure state shared by the members of one team region.
class TeamState {
 public:
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  void fail(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!exc_) exc_ = std::move(e);
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  // Called on the dispatching thread after every member retired.
  void rethrow_if_failed() {
    if (exc_) std::rethrow_exception(exc_);
  }

 private:
  std::atomic<bool> failed_{false};
  std::mutex mu_;
  std::exception_ptr exc_;
};

// One member's handle on the team region running it.
class TeamMember {
 public:
  TeamMember(TeamState& state, int tid, int nthreads)
      : state_(state), tid_(tid), nthreads_(nthreads) {}

  int tid() const { return tid_; }
  int nthreads() const { return nthreads_; }
  bool failed() const { return state_.failed(); }

  // Runs fn() on this member unless the region has already failed. An
  // exception is recorded instead of propagating, so the member goes on to
  // the barriers its teammates wait at. (A pool barrier unwinding an aborted
  // region is not a failure of fn and passes through.)
  template <typename Fn>
  void run(Fn&& fn) {
    if (failed()) return;
    try {
      fn();
    } catch (const detail::RegionAborted&) {
      throw;
    } catch (...) {
      state_.fail(std::current_exception());
    }
  }

  // A precondition of member code. Throwing it past the barriers would hang
  // an omp team, so a failed check is recorded like a throw from run() and
  // returns false. The condition must be the same on every member, so that
  // all of them leave the collective call together.
  bool check(bool ok, const char* msg) {
    if (!ok) run([msg] { throw std::invalid_argument(msg); });
    return ok;
  }

  // Region barrier; a one-member region has nothing to wait for.
  void barrier() const {
    if (nthreads_ > 1) thread_barrier();
  }

  // fn() on tid 0 only, then a barrier.
  template <typename Fn>
  void single(Fn&& fn) {
    if (tid_ == 0) run(fn);
    barrier();
  }

  // fn(lo, hi) on this member's contiguous block of [0, n), then a barrier.
  template <typename Fn>
  void split(std::int64_t n, Fn&& fn) {
    const std::int64_t per = (n + nthreads_ - 1) / nthreads_;
    const std::int64_t lo = std::min<std::int64_t>(n, per * tid_);
    const std::int64_t hi = std::min<std::int64_t>(n, lo + per);
    if (lo < hi) run([&] { fn(lo, hi); });
    barrier();
  }

 private:
  TeamState& state_;
  int tid_;
  int nthreads_;
};

// Opens one parallel_region of min(width, team) members (width <= 0 = the
// whole team) and calls fn(TeamMember&) on each. Nested inside another
// region it degrades, like every region, to a single member (0, 1) on the
// calling thread — the enclosing region is never treated as the team. A
// failure recorded by any member is rethrown here.
template <typename Fn>
void team_region(Fn&& fn, int width = 0) {
  TeamState state;
  parallel_region(
      [&](int tid, int nthreads) {
        TeamMember m(state, tid, nthreads);
        fn(m);
      },
      width);
  state.rethrow_if_failed();
}

}  // namespace plt::parlooper
