// Register-block walk shared by the AVX-512 BRGEMM microkernels. Include only
// from translation units compiled with the AVX-512 -m flags.
//
// C is covered by register blocks of MV 16-lane m vectors x NB columns:
// 2 x 8 (16 accumulators) while more than 16 rows remain, then 1 x 12 for
// the last <= 16 rows; each row strip ends in n tails of 4, 2 and 1 columns.
// The last m vector of a block carries the lane mask of the m tail. A tile
// type supplies `template <int MV, int NB> static void run(i0, j0, tail)`
// (as a callable's member) that reduces the whole batch into its block.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

inline __mmask16 lane_mask(std::int64_t rows) {
  return rows >= 16 ? static_cast<__mmask16>(0xffffu)
                    : static_cast<__mmask16>((1u << rows) - 1u);
}

// Lane masks of a block's MV m vectors: full, except the last one's tail.
template <int MV>
inline void block_masks(__mmask16 tail, __mmask16 (&mask)[MV]) {
#pragma GCC unroll 2
  for (int v = 0; v < MV; ++v)
    mask[v] = v + 1 < MV ? static_cast<__mmask16>(0xffffu) : tail;
}

// Loads a C block into accumulators (zeros when !acc: a zero mask loads
// nothing), and stores it back. Fully unrolled so the block stays in
// registers.
template <int MV, int NB>
inline void load_block(__m512 (&accv)[MV][NB], const float* c, std::int64_t ldc,
                       const __mmask16 (&mask)[MV], bool acc) {
#pragma GCC unroll 12
  for (int jj = 0; jj < NB; ++jj)
#pragma GCC unroll 2
    for (int v = 0; v < MV; ++v)
      accv[v][jj] = _mm512_maskz_loadu_ps(acc ? mask[v] : 0, c + v * 16 + jj * ldc);
}

template <int MV, int NB>
inline void store_block(const __m512 (&accv)[MV][NB], float* c,
                        std::int64_t ldc, const __mmask16 (&mask)[MV]) {
#pragma GCC unroll 12
  for (int jj = 0; jj < NB; ++jj)
#pragma GCC unroll 2
    for (int v = 0; v < MV; ++v)
      _mm512_mask_storeu_ps(c + v * 16 + jj * ldc, mask[v], accv[v][jj]);
}

template <int MV, int NB, typename Tile>
void sweep_n(const Tile& tile, std::int64_t n, std::int64_t i0,
             __mmask16 tail) {
  std::int64_t j = 0;
  for (; j + NB <= n; j += NB) tile.template run<MV, NB>(i0, j, tail);
  for (; j + 4 <= n; j += 4) tile.template run<MV, 4>(i0, j, tail);
  if (j + 2 <= n) {
    tile.template run<MV, 2>(i0, j, tail);
    j += 2;
  }
  if (j < n) tile.template run<MV, 1>(i0, j, tail);
}

template <typename Tile>
void for_each_block(const Tile& tile, const MicroArgs& s) {
  std::int64_t i = 0;
  for (; s.m - i > 16; i += 32) sweep_n<2, 8>(tile, s.n, i, lane_mask(s.m - i - 16));
  if (i < s.m) sweep_n<1, 12>(tile, s.n, i, lane_mask(s.m - i));
}

}  // namespace plt::tpp::detail
