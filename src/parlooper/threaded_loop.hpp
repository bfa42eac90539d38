// Public PARLOOPER API (Listing 1 of the paper):
//
//   auto gemm_loop = ThreadedLoop<3>({
//       LoopSpecs{0, Kb, k_step, {l1_k_step, l0_k_step}},   // "a"
//       LoopSpecs{0, Mb, m_step, {l1_m_step, l0_m_step}},   // "b"
//       LoopSpecs{0, Nb, n_step, {l1_n_step, l0_n_step}}},  // "c"
//       loop_spec_string);
//   gemm_loop([&](const int64_t* ind) { ... });
//
// The spec string selects loop order, blockings and parallelization at
// runtime with zero user-code change. Plans are cached, so repeated
// construction with the same spec is a lookup, not a re-compile; the
// interpreter executes them (flat per-team schedules for small nests).
// Nests compose inside one team region through collective() (team.hpp).
#pragma once

#include <array>
#include <functional>
#include <memory>

#include "parlooper/access_map.hpp"
#include "parlooper/interpreter.hpp"
#include "parlooper/nest_plan.hpp"

namespace plt::parlooper {

class LoopNest {
 public:
  // `access` optionally declares the per-iteration tensor footprints of the
  // body (see access_map.hpp); it is attached to the (shared, cached) plan
  // and lets the static verifier prove race-freedom of the schedule. An
  // empty map only disables the race check — coverage is still provable.
  // Construction also runs the PLT_VERIFY_PLANS compile-time verification
  // hook.
  LoopNest(std::vector<LoopSpecs> loops, const std::string& spec_string,
           const AccessMap& access = {});

  // Standalone invocation: standalone(member's share of collective(m, ...)).
  void operator()(const BodyFn& body, const VoidFn& init = {},
                  const VoidFn& term = {}) const;

  // Runs fn(TeamMember&) where a standalone call runs this nest: in one team
  // region (nested inside another region it degrades to one member on the
  // caller), or, for a serial nest, on the caller as a one-member team
  // without a region. A wrapper whose member body makes collective calls on
  // this nest opens its region here, so it opens the regions operator()
  // would. A failure recorded by any member is rethrown here.
  template <typename Fn>
  void standalone(Fn&& fn) const {
    if (plan_->any_parallel()) {
      team_region(fn);
      return;
    }
    TeamState state;
    TeamMember caller(state, 0, 1);
    fn(caller);
    state.rethrow_if_failed();
  }

  // Collective invocation: called by every member of the current team
  // region (team.hpp), each with its own TeamMember. Walks member m's share
  // of the schedule — the same (tid, nthreads) partitioning a standalone
  // call uses — and ends in a region barrier; opens no region. A throw is
  // recorded on m and rethrown by team_region(), never mid-protocol.
  void collective(TeamMember& m, const BodyFn& body, const VoidFn& init = {},
                  const VoidFn& term = {}) const;

  const LoopNestPlan& plan() const { return *plan_; }

 private:
  std::shared_ptr<const LoopNestPlan> plan_;
};

// Paper-style sugar: the template parameter documents (and checks) the
// number of logical loops at the call site.
template <int N>
class ThreadedLoop : public LoopNest {
 public:
  ThreadedLoop(std::array<LoopSpecs, static_cast<std::size_t>(N)> specs,
               const std::string& spec_string, const AccessMap& access = {})
      : LoopNest(std::vector<LoopSpecs>(specs.begin(), specs.end()),
                 spec_string, access) {
    static_assert(N >= 1 && N <= 26, "1..26 logical loops");
  }
};

// Number of plan constructions that found a cached plan vs built a new one
// (Section II-B's "avoid JIT overheads whenever possible" caching claim,
// which here means plan construction).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
PlanCacheStats plan_cache_stats();

// Visits every cached plan under the registry lock (the visitor must not
// construct nests). Lets tools/nest_lint sweep the static verifier over
// everything the process instantiated — models register their real plans
// (with attached access maps) simply by being constructed.
void plan_cache_for_each(
    const std::function<void(const LoopNestPlan&)>& visitor);

}  // namespace plt::parlooper
