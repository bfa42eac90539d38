// Compiled loop-nest plan: the loop IR the interpreter executor runs. Built
// once per (declaration, spec string) and
// cached; numeric bounds stay runtime parameters of execution, mirroring the
// paper's "blocking lists may be provided at runtime" design.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "parlooper/access_map.hpp"
#include "parlooper/loop_spec.hpp"

namespace plt::parlooper {

struct CompiledLevel {
  LoopTerm term;
  std::int64_t step = 1;    // step of this occurrence
  std::int64_t trip = 0;    // constant trip count (in steps)
  int parent_level = -1;    // previous occurrence of the same letter, or -1

  // PAR-MODE 1 collapse-group bookkeeping.
  bool group_head = false;
  int group_size = 0;       // valid at the head
  bool in_group = false;
  std::int64_t group_total = 0;  // at the head: product of the group's trips
};

// Precompiled steady-state schedule for one team size: for every thread, the
// exact body invocations (innermost logical-index tuples, row-major
// [invocation][num_logical]) in program order, segmented at barrier points.
// Executing a nest becomes a flat array walk — no recursive re-derivation of
// chunk bounds, grid cells or collapse-group divisions per call.
struct ThreadProgram {
  std::vector<std::int64_t> inds;     // invocations * num_logical values
  std::vector<std::int64_t> seg_len;  // invocations per barrier-delimited segment
};

struct TeamSchedule {
  int nthreads = 0;
  std::vector<ThreadProgram> threads;
  const TeamSchedule* next = nullptr;  // intrusive memo chain (see plan)
};

class LoopNestPlan {
 public:
  LoopNestPlan(std::vector<LoopSpecs> loops, const std::string& spec_string);

  const std::vector<LoopSpecs>& loops() const { return loops_; }
  const ParsedSpec& parsed() const { return parsed_; }
  const std::vector<CompiledLevel>& levels() const { return levels_; }
  int num_logical() const { return static_cast<int>(loops_.size()); }
  const std::string& spec_string() const { return spec_string_; }

  // Index of the innermost occurrence level per logical loop (the value the
  // body receives in ind[]).
  const std::vector<int>& innermost_level() const { return innermost_level_; }

  // PAR-MODE 2 logical thread grid (1 along unused axes).
  int grid_rows() const { return grid_rows_; }
  int grid_cols() const { return grid_cols_; }
  int grid_layers() const { return grid_layers_; }

  // Total body invocations of one execution (product of all trip counts).
  std::int64_t total_iterations() const { return total_iterations_; }

  // True when any level is parallelized (precomputed; the hot dispatch path
  // must not rescan the levels per call).
  bool any_parallel() const { return any_parallel_; }

  // Precompiled per-thread schedule for an nthreads-wide team, built on
  // first use and memoized for the plan's lifetime (an invocation is then a
  // flat walk of ThreadProgram::inds). Returns nullptr when the nest is too
  // large to flatten (> kFlatScheduleMaxIters body calls) — execution
  // falls back to the recursive interpreter, whose per-call overhead is
  // amortized by the large body count. The lookup is lock-free on the hit
  // path (acquire walk of an immutable chain). Defined in interpreter.cpp,
  // which owns the single source of truth for iteration-order semantics.
  const TeamSchedule* team_schedule(int nthreads) const;

  // Flattening threshold in body invocations: small nests (dispatch-bound)
  // walk a flat schedule, larger ones the recursive interpreter.
  static constexpr std::int64_t kFlatScheduleMaxIters = std::int64_t{1} << 13;

  // Access maps attached by the plan's users (LoopNest construction sites).
  // Plans are cached and shared, so several kernels with the same spec and
  // bounds accumulate their (deduplicated) footprints here; the static
  // verifier (src/analysis/) proves race-freedom against every attached map.
  // Returns true when the map was new (not a structural duplicate).
  bool attach_access_map(const AccessMap& map) const;
  std::vector<AccessMap> access_maps() const;

  ~LoopNestPlan();
  LoopNestPlan(const LoopNestPlan&) = delete;
  LoopNestPlan& operator=(const LoopNestPlan&) = delete;

 private:
  std::vector<LoopSpecs> loops_;
  std::string spec_string_;
  ParsedSpec parsed_;
  std::vector<CompiledLevel> levels_;
  std::vector<int> innermost_level_;
  int grid_rows_ = 1, grid_cols_ = 1, grid_layers_ = 1;
  std::int64_t total_iterations_ = 0;
  bool any_parallel_ = false;

  mutable std::atomic<const TeamSchedule*> schedules_{nullptr};
  mutable std::mutex schedule_build_mu_;

  mutable std::mutex access_mu_;  // guards access_maps_/access_signatures_
  mutable std::vector<AccessMap> access_maps_;
  mutable std::vector<std::string> access_signatures_;
};

}  // namespace plt::parlooper
