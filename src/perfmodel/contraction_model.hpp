// Trace-based performance prediction for PARLOOPER loop nests whose body is
// a BRGEMM tensor contraction (Section II-E).
//
// For a candidate loop instantiation the model replays each simulated
// thread's body invocations in chronological order. Every invocation
// touches three tensor slices (the A, B and C blocks identified by the
// logical indices); a per-thread multi-level LRU simulation locates each
// slice and the invocation cost is
//     max(compute cycles, max over operands of bytes / bandwidth(level)).
// The predicted kernel time is the maximum over threads — which also scores
// parallel schedules with poor concurrency (idle threads shift all work onto
// a few traces). Data sharing between threads is ignored, as in the paper.
#pragma once

#include <functional>

#include "parlooper/nest_plan.hpp"
#include "perfmodel/cache_model.hpp"

namespace plt::perfmodel {

struct SliceAccess {
  std::uint64_t id = 0;      // globally unique slice id
  std::int64_t bytes = 0;    // slice footprint
};

// Describes the BRGEMM body of a nest: per body invocation, which slices are
// touched and how many flops are performed.
struct ContractionDesc {
  double flops_per_call = 0.0;
  bool bf16 = false;  // selects the platform's low-precision compute peak
  std::function<SliceAccess(const std::int64_t* ind)> a_slice;
  std::function<SliceAccess(const std::int64_t* ind)> b_slice;
  std::function<SliceAccess(const std::int64_t* ind)> c_slice;
};

struct Prediction {
  double cycles = 0.0;           // max over simulated threads
  double flops_per_cycle = 0.0;  // aggregate: total flops / cycles
  std::int64_t busiest_thread_calls = 0;
};

Prediction predict_contraction(const parlooper::LoopNestPlan& plan,
                               const ContractionDesc& desc,
                               const PlatformModel& platform, int nthreads);

// Convenience: model the Listing-1 blocked GEMM for a given spec string.
struct GemmModelProblem {
  std::int64_t M = 0, N = 0, K = 0;
  std::int64_t bm = 32, bn = 32, bk = 32;
  std::int64_t k_step = 0;  // K blocks per BRGEMM call; 0 = all (GemmConfig)
  bool bf16 = false;
  std::vector<std::int64_t> m_blocking, n_blocking, k_blocking;
};

Prediction model_gemm_spec(const GemmModelProblem& p, const std::string& spec,
                           const PlatformModel& platform, int nthreads);

}  // namespace plt::perfmodel
