// Static schedule verifier: proves, at plan-compile time and without
// executing a single body invocation, that a compiled LoopNestPlan is safe to
// parallelize — the paper's central "aggressive parallelization without
// changing results" claim turned from a dynamically-tested property (TSan
// jobs, bitwise re-checks) into a statically-proved one.
//
// Two properties, per team size:
//
//   1. COVERAGE      The union of all ThreadProgram index tuples equals the
//                    full logical iteration space exactly once — across
//                    collapse groups, PAR-MODE 2 grids, remainder chunks,
//                    dynamic-schedule chunking and idle threads.
//   2. RACE-FREEDOM  Write footprints derived from the attached AccessMap
//                    strides are pairwise-disjoint across threads within each
//                    barrier-delimited segment, and read-after-write hazards
//                    only cross barriers (in/out aliasing uses one tensor
//                    name, so it is flagged the same way).
//
// Exposed three ways: the PLT_VERIFY_PLANS=1|2 hook at plan-compile time
// (warn / PLT_ENSURE-fail), the tools/nest_lint CLI sweep, and the mutation
// self-test that proves the verifier actually detects corrupted schedules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parlooper/interpreter.hpp"
#include "parlooper/nest_plan.hpp"

namespace plt::analysis {

enum class IssueKind {
  kStructure,        // malformed programs: barrier counts differ, bad tuples
  kCoverage,         // missing / duplicated / off-grid iteration tuples
  kRace,             // cross-thread write-write overlap within a segment
  kReadAfterWrite,   // cross-thread RAW hazard not separated by a barrier
};

const char* issue_kind_name(IssueKind k);

struct Issue {
  IssueKind kind;
  std::string message;
};

struct VerifyOptions {
  bool check_coverage = true;
  bool check_races = true;    // no-op unless access maps are supplied
  // Plans whose iteration space exceeds this are skipped (*_checked stays
  // false) rather than enumerated; verification is exact, not sampled.
  std::int64_t max_iterations = std::int64_t{1} << 20;
  std::size_t max_issues = 16;  // per report; further findings are counted
};

struct VerifyReport {
  int nthreads = 0;
  bool coverage_checked = false;
  bool races_checked = false;
  std::size_t maps_checked = 0;     // access maps the race pass covered
  std::size_t suppressed_issues = 0;  // findings beyond max_issues
  std::vector<Issue> issues;

  bool ok() const { return issues.empty() && suppressed_issues == 0; }
  bool has(IssueKind k) const;
  std::string summary() const;  // one line; multi-line detail when failing
};

// Verifies recorded per-thread programs against the plan's logical iteration
// space and the given access maps. This is the core the mutation self-test
// drives with deliberately corrupted programs; verify_plan feeds it the real
// recorded schedules.
VerifyReport verify_programs(
    const parlooper::LoopNestPlan& plan,
    const std::vector<parlooper::ThreadProgram>& threads,
    const std::vector<parlooper::AccessMap>& maps,
    const VerifyOptions& opts = {});

// Records the interpreter's team programs for an nthreads-wide team and runs
// verify_programs against the plan's attached access maps.
VerifyReport verify_plan(const parlooper::LoopNestPlan& plan, int nthreads,
                         const VerifyOptions& opts = {});

// Canonical team-size sweep {1, 2, 4, 8} used by the compile-time hook and
// the nest_lint CLI.
const std::vector<int>& default_team_sizes();

// Plan-compile-time hook, called by LoopNest construction. Gated by
// PLT_VERIFY_PLANS: 0/unset = off; 1 = verify and warn on findings;
// 2 = verify and PLT_ENSURE-fail (kInvalidArgument) on findings. Verifies
// the default team sizes, memoized per (plan, attached-map count) so cached
// plans are not re-proved on every LoopNest hit.
void maybe_verify_at_plan_compile(const parlooper::LoopNestPlan& plan);

// --- mutation self-test ------------------------------------------------------
//
// The verifier is itself a safety gate, so CI proves it detects corruption:
// each mutation kind applied to a known-good schedule must produce a failing
// report.
enum class Mutation {
  kDropTuple,        // delete one invocation -> coverage hole
  kDuplicateTuple,   // repeat one invocation -> double execution
  kCrossBarrierSwap, // exchange tuples across a barrier -> RAW violation
};

const char* mutation_name(Mutation m);

// Applies the mutation to a copy of the programs. Returns an empty vector if
// the programs have no site for the mutation (e.g. no multi-segment thread
// for kCrossBarrierSwap).
std::vector<parlooper::ThreadProgram> mutate_programs(
    const std::vector<parlooper::ThreadProgram>& threads, Mutation m,
    int num_logical);

// Runs all three mutations against a canonical two-phase plan and asserts
// the verifier flags each (and passes the unmutated schedule). Returns an
// empty string on success, else a description of the first failure.
std::string mutation_self_test();

}  // namespace plt::analysis
