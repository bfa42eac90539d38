// Interpreter executor for a compiled loop-nest plan.
//
// Reproduces the execution model of the paper's generated code (Listing 2):
// every thread in the parallel region redundantly executes the sequential
// levels; PAR-MODE 1 collapse groups distribute their flattened iteration
// space across threads (static chunking, or cyclic self-scheduling when the
// spec requests schedule(dynamic)); PAR-MODE 2 grid levels are partitioned
// in block fashion along the thread grid's row/column/layer coordinate.
//
// It is the only executor: small nests walk a precompiled per-team flat
// schedule, larger ones the recursive level walk below; both visit the same
// invocations in the same order.
#pragma once

#include <functional>

#include "parlooper/nest_plan.hpp"
#include "parlooper/team.hpp"

namespace plt::parlooper {

using BodyFn = std::function<void(const std::int64_t* ind)>;
using VoidFn = std::function<void()>;

// Executes member m's share of the plan: the per-team flat schedule's
// program for (m.tid(), m.nthreads()), or the recursive walk, with region
// barriers at the plan's barrier points. A serial nest (no parallel letters)
// runs whole on member 0. Opens no region and adds no trailing barrier.
// Exceptions from body/init/term are recorded on m. The throwing member does
// no further work but still arrives at every barrier; its teammates notice
// the failure at their next flat-schedule segment (a recursive walk runs to
// its end).
void run_member(const LoopNestPlan& plan, TeamMember& m, const BodyFn& body,
                const VoidFn& init = {}, const VoidFn& term = {});

// Enumerates, in program order, the body invocations that thread `tid` of a
// team of `nthreads` would execute — without running any other thread and
// without barriers. This is the trace generator of the performance-modeling
// tool (Section II-E): it lets the model replay a candidate loop
// instantiation for an arbitrary simulated thread count, enabling offline,
// cross-platform tuning.
void simulate_thread(const LoopNestPlan& plan, int tid, int nthreads,
                     const BodyFn& body);

// Records, without executing any body, the exact ThreadProgram thread `tid`
// of an nthreads-wide team runs: every invocation's logical-index tuple in
// program order, segmented at barrier points. This is the raw material of
// the static schedule verifier (src/analysis/) and of team_schedule().
ThreadProgram record_thread_program(const LoopNestPlan& plan, int tid,
                                    int nthreads);

// Records the whole team, applying the serial-nest rule (a nest with no
// parallel letters executes on thread 0 only; other members get an empty
// program with matching barrier structure). Exactly the programs
// team_schedule() would memoize, without the flat-schedule size gate.
std::vector<ThreadProgram> record_team_programs(const LoopNestPlan& plan,
                                                int nthreads);

}  // namespace plt::parlooper
