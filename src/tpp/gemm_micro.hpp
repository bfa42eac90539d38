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
//   AMX bf16: 16 x 16 fp32 tiles of C^T, 2 x 2 while n and m allow
//     (gemm_amx.cpp)
//
// Declarations are unconditional; definitions for the vector paths live in
// per-ISA translation units compiled with the matching -m flags, and the
// selector in brgemm.cpp only references them when the corresponding
// PLT_KERNELS_* macro is on (the same macros gate cpu_features.cpp, so a
// kernel is referenced iff it is compiled). The AVX512BF16 tier holds the
// AMX kernel too when the compiler has the AMX flags; it then defines
// PLT_KERNELS_AVX512BF16 as 2.
#pragma once

#include <cstdint>

#include "common/bf16.hpp"

namespace plt::tpp::detail {

// AMX tile shapes of one BRGEMM shape, built once per BrgemmTPP by
// amx_tiles(): the LDTILECFG operand of the 32-row n chunks, the one of the
// last chunk when 32 does not divide n, and the k each tdpbf16ps reduces.
struct AmxTiles {
  struct Config {  // palette 1 layout
    std::uint8_t palette = 1;
    std::uint8_t start_row = 0;
    std::uint8_t reserved[14] = {};
    std::uint16_t colsb[16] = {};
    std::uint8_t rows[16] = {};
  };
  Config full, tail;
  std::int64_t kc = 0;
};

struct MicroArgs {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
  const AmxTiles* tiles = nullptr;  // read by the AMX kernel only
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

// AMX (tdpbf16ps), VNNI2 A only. Takes the shapes amx_takes() accepts
// (m % 16 == 0, even k); args.tiles must be amx_tiles(n, k). Leaves no
// tile state configured (TILERELEASE before returning).
bool amx_takes(std::int64_t m, std::int64_t k);
AmxTiles amx_tiles(std::int64_t n, std::int64_t k);
void gemm_bf16_vnni_amx(const MicroArgs&, const bf16* const*,
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
