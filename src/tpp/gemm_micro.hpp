// Internal microkernel entry points for the (BR)GEMM TPP.
//
// One entry per ISA level and operand type, all with identical semantics:
//   C(m x n, col-major ldc) {=, +=} sum_{i<brcount} A_i(m x k) * B_i(k x n)
// where `acc` selects overwrite (false) vs accumulate (true) for the first
// term. A_i is col-major (lda) in the flat layout, or VNNI2-packed
// ([ceil(k/2)][m][2], lda = m stride in pairs) for the low-precision fast
// paths. B_i is always col-major (ldb). bf16 inputs accumulate into an fp32
// C tile; the caller converts. brcount >= 1.
//
// The batch is reduced inside the kernel: the vector paths load a register
// block of C once, run every (A_i, B_i) pair through it and store it once.
// Each C element still accumulates in (batch index, k) order, so the result
// is bitwise identical to brcount successive single-block calls.
//
// Register blocks (fp32 accumulators, m vectors x n columns):
//   AVX-512 fp32, vdpbf16ps and bf16 upconvert: 16-lane zmm, 2 x 8 while
//     more than 16 rows remain, then 1 x 12; masked m tails, n tails of
//     4, 2 and 1 (gemm_avx512_blocking.hpp)
//   AVX2 fp32: 8-lane ymm x 4
//
// Declarations are unconditional; definitions for the vector paths live in
// per-ISA translation units compiled with the matching -m flags, and the
// selector in brgemm.cpp only references them when the corresponding
// PLT_KERNELS_* macro is on (the same macros gate cpu_features.cpp, so a
// kernel is referenced iff it is compiled).
#pragma once

#include <cstdint>

#include "common/bf16.hpp"

namespace plt::tpp::detail {

struct MicroArgs {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
};

using F32Micro = void (*)(const MicroArgs&, const float* const* a,
                          const float* const* b, std::int64_t brcount,
                          float* c, bool acc);
using Bf16Micro = void (*)(const MicroArgs&, const bf16* const* a,
                           const bf16* const* b, std::int64_t brcount,
                           float* c, bool acc);

// Scalar reference paths (always available; numerics ground truth).
void gemm_f32_ref(const MicroArgs&, const float* const*, const float* const*,
                  std::int64_t, float*, bool);
void gemm_bf16_flat_ref(const MicroArgs&, const bf16* const*,
                        const bf16* const*, std::int64_t, float*, bool);
void gemm_bf16_vnni_ref(const MicroArgs&, const bf16* const*,
                        const bf16* const*, std::int64_t, float*, bool);

// AVX2 + FMA.
void gemm_f32_avx2(const MicroArgs&, const float* const*, const float* const*,
                   std::int64_t, float*, bool);

// AVX-512 (F/BW/VL/DQ).
void gemm_f32_avx512(const MicroArgs&, const float* const*,
                     const float* const*, std::int64_t, float*, bool);
void gemm_bf16_vnni_avx512(const MicroArgs&, const bf16* const*,
                           const bf16* const*, std::int64_t, float*, bool);

// AVX-512 BF16 (vdpbf16ps).
void gemm_bf16_vnni_avx512bf16(const MicroArgs&, const bf16* const*,
                               const bf16* const*, std::int64_t, float*, bool);

// fp32 <-> bf16 conversion of `count` contiguous elements for a bf16 C tile.
// The narrowing rounds exactly like bf16::from_f32 (round-to-nearest-even by
// integer add, NaN quietened, denormals kept).
using ToBf16 = void (*)(const float* src, bf16* dst, std::int64_t count);
using FromBf16 = void (*)(const bf16* src, float* dst, std::int64_t count);

void f32_to_bf16_ref(const float*, bf16*, std::int64_t);
void bf16_to_f32_ref(const bf16*, float*, std::int64_t);
void f32_to_bf16_avx512(const float*, bf16*, std::int64_t);
void bf16_to_f32_avx512(const bf16*, float*, std::int64_t);

}  // namespace plt::tpp::detail
