#include "parlooper/nest_plan.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace plt::parlooper {

LoopNestPlan::LoopNestPlan(std::vector<LoopSpecs> loops,
                           const std::string& spec_string)
    : loops_(std::move(loops)), spec_string_(spec_string) {
  parsed_ = parse_loop_spec(spec_string, static_cast<int>(loops_.size()));
  const std::string err = validate_spec(parsed_, loops_);
  if (!err.empty()) {
    throw std::invalid_argument("loop_spec_string '" + spec_string +
                                "' invalid: " + err);
  }

  levels_.resize(parsed_.terms.size());
  std::vector<int> last_occurrence_level(loops_.size(), -1);
  innermost_level_.assign(loops_.size(), -1);
  total_iterations_ = 1;

  for (std::size_t li = 0; li < parsed_.terms.size(); ++li) {
    CompiledLevel& lvl = levels_[li];
    lvl.term = parsed_.terms[li];
    lvl.step = term_step(parsed_, li, loops_);
    const LoopSpecs& spec = loops_[static_cast<std::size_t>(lvl.term.logical)];
    lvl.parent_level = last_occurrence_level[static_cast<std::size_t>(lvl.term.logical)];
    const std::int64_t extent =
        lvl.parent_level < 0
            ? spec.end - spec.start
            : levels_[static_cast<std::size_t>(lvl.parent_level)].step;
    PLT_CHECK(extent % lvl.step == 0, "non-perfect nesting slipped validation");
    lvl.trip = extent / lvl.step;
    total_iterations_ *= lvl.trip;
    last_occurrence_level[static_cast<std::size_t>(lvl.term.logical)] =
        static_cast<int>(li);
    innermost_level_[static_cast<std::size_t>(lvl.term.logical)] =
        static_cast<int>(li);

    if (lvl.term.grid == GridAxis::kRow) grid_rows_ = lvl.term.grid_ways;
    if (lvl.term.grid == GridAxis::kCol) grid_cols_ = lvl.term.grid_ways;
    if (lvl.term.grid == GridAxis::kLayer) grid_layers_ = lvl.term.grid_ways;
  }

  // Mark PAR-MODE 1 collapse groups (consecutive implicit-parallel levels).
  std::size_t li = 0;
  while (li < levels_.size()) {
    const bool implicit_par = levels_[li].term.parallel &&
                              levels_[li].term.grid == GridAxis::kNone;
    if (!implicit_par) {
      ++li;
      continue;
    }
    std::size_t gend = li;
    while (gend < levels_.size() && levels_[gend].term.parallel &&
           levels_[gend].term.grid == GridAxis::kNone) {
      ++gend;
    }
    levels_[li].group_head = true;
    levels_[li].group_size = static_cast<int>(gend - li);
    levels_[li].group_total = 1;
    for (std::size_t g = li; g < gend; ++g) {
      levels_[g].in_group = true;
      levels_[li].group_total *= levels_[g].trip;
    }
    li = gend;
  }

  for (const CompiledLevel& lvl : levels_) {
    any_parallel_ = any_parallel_ || lvl.term.parallel;
  }
}

LoopNestPlan::~LoopNestPlan() {
  const TeamSchedule* s = schedules_.load(std::memory_order_acquire);
  while (s != nullptr) {
    const TeamSchedule* next = s->next;
    delete s;
    s = next;
  }
}

bool LoopNestPlan::attach_access_map(const AccessMap& map) const {
  if (map.empty()) return false;
  for (const TensorAccess& a : map.accesses) {
    PLT_CHECK(a.coeffs.size() == static_cast<std::size_t>(num_logical()),
              "access map: one coefficient per logical loop");
    PLT_CHECK(a.span >= 1 && a.reps >= 1, "access map: empty footprint");
  }
  const std::string sig = map.signature();
  std::lock_guard<std::mutex> lock(access_mu_);
  for (const std::string& s : access_signatures_) {
    if (s == sig) return false;
  }
  access_signatures_.push_back(sig);
  access_maps_.push_back(map);
  return true;
}

std::vector<AccessMap> LoopNestPlan::access_maps() const {
  std::lock_guard<std::mutex> lock(access_mu_);
  return access_maps_;
}

}  // namespace plt::parlooper
