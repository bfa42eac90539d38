// Vendor-library substitutes for the paper's GEMM comparisons: in-repo
// stand-ins for oneDNN / AOCL / TVM / Mojo, which are not dependencies.
//
// Three tiers, all correct, differing only in schedule quality:
//   * naive_gemm           — textbook triple loop (lower bound)
//   * fixed_blocked_gemm   — one-size-fits-all cache blocking with OpenMP
//                            parallelism over M; this is the "library
//                            without per-shape outer-loop tuning" baseline
//   * fixed_blocked_gemm_bf16 — same schedule, bf16 inputs with fp32
//                            accumulation (flat layout, no VNNI packing —
//                            the layout handicap Fig. 2 attributes to
//                            oneDNN's unblocked B)
// All matrices are column-major.
#pragma once

#include <cstdint>

#include "common/bf16.hpp"

namespace plt::baselines {

void naive_gemm(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k);

void fixed_blocked_gemm(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t n, std::int64_t k);

void fixed_blocked_gemm_bf16(const bf16* a, const bf16* b, float* c,
                             std::int64_t m, std::int64_t n, std::int64_t k);

}  // namespace plt::baselines
