#include "parlooper/threaded_loop.hpp"

#include <mutex>
#include <sstream>
#include <unordered_map>

#include "analysis/verifier.hpp"
#include "common/fault.hpp"

namespace plt::parlooper {

namespace {

// Plan cache: (bounds + spec string) -> compiled plan. Plans bake numeric
// trip counts, so bounds are part of the key.
struct PlanRegistry {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const LoopNestPlan>> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PlanRegistry& plan_registry() {
  static PlanRegistry r;
  return r;
}

std::string plan_key(const std::vector<LoopSpecs>& loops,
                     const std::string& spec) {
  std::ostringstream os;
  os << spec << '#';
  for (const LoopSpecs& l : loops) {
    os << l.start << ',' << l.end << ',' << l.step << '[';
    for (std::int64_t b : l.block_steps) os << b << ',';
    os << ']';
  }
  return os.str();
}

}  // namespace

PlanCacheStats plan_cache_stats() {
  PlanRegistry& reg = plan_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return PlanCacheStats{reg.hits, reg.misses};
}

void plan_cache_for_each(
    const std::function<void(const LoopNestPlan&)>& visitor) {
  PlanRegistry& reg = plan_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [key, plan] : reg.map) visitor(*plan);
}

LoopNest::LoopNest(std::vector<LoopSpecs> loops, const std::string& spec_string,
                   const AccessMap& access) {
  const std::string key = plan_key(loops, spec_string);
  PlanRegistry& reg = plan_registry();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.map.find(key);
    if (it != reg.map.end()) {
      ++reg.hits;
      plan_ = it->second;
    }
  }
  if (!plan_) {
    auto plan = std::make_shared<const LoopNestPlan>(std::move(loops), spec_string);
    std::lock_guard<std::mutex> lock(reg.mu);
    auto [it, inserted] = reg.map.emplace(key, plan);
    if (inserted) ++reg.misses; else ++reg.hits;
    plan_ = it->second;
  }

  if (!access.empty()) plan_->attach_access_map(access);
  // Static verification hook (PLT_VERIFY_PLANS=1 warn / =2 fail); memoized
  // per plan so cache hits with an already-proved map set return instantly.
  analysis::maybe_verify_at_plan_compile(*plan_);
}

namespace {

// One member's part of one nest invocation.
void invoke_member(const LoopNestPlan& plan, TeamMember& m, const BodyFn& body,
                   const VoidFn& init, const VoidFn& term) {
  // Chaos-test hook: one fault point per nest invocation, drawn by member 0
  // (the caller when the region degraded). Unarmed cost is one relaxed load
  // + branch.
  if (m.tid() == 0) {
    m.run([] { common::fault::fire_point(common::fault::Site::kKernelExec); });
  }
  run_member(plan, m, body, init, term);
}

}  // namespace

void LoopNest::operator()(const BodyFn& body, const VoidFn& init,
                          const VoidFn& term) const {
  // The region's join is the trailing barrier.
  standalone(
      [&](TeamMember& m) { invoke_member(*plan_, m, body, init, term); });
}

void LoopNest::collective(TeamMember& m, const BodyFn& body, const VoidFn& init,
                          const VoidFn& term) const {
  invoke_member(*plan_, m, body, init, term);
  m.barrier();
}

}  // namespace plt::parlooper
