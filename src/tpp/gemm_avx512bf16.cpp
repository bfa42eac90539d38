// AVX-512-BF16 microkernel using the native vdpbf16ps dot-product. On AMX
// hosts it takes the bf16 shapes the tile kernel does not (odd k, or
// m % 16 != 0; gemm_amx.cpp). Compiled with -mavx512bf16; referenced only
// when CPUID reports the feature.
//
// Register blocks of gemm_avx512_blocking.hpp (2 x 8 or 1 x 12 16-lane
// accumulators), loaded once per call and kept in registers across the
// batch. Every loop over the block is fully unrolled so the accumulators
// are never spilled.
#include <immintrin.h>

#include <cstring>

#include "tpp/gemm_avx512_blocking.hpp"
#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

namespace {

// The (2p, 2p+1) bf16 pair of a B column as one 32-bit granule.
inline __m512i broadcast_pair(const bf16* pair) {
  std::int32_t word;
  std::memcpy(&word, pair, sizeof(word));
  return _mm512_set1_epi32(word);
}

struct DpTile {
  const MicroArgs& s;
  const bf16* const* a;
  const bf16* const* b;
  std::int64_t brcount;
  float* c;
  bool acc;

  template <int MV, int NB>
  void run(std::int64_t i0, std::int64_t j0, __mmask16 tail) const {
    __mmask16 mask[MV];
    block_masks(tail, mask);
    float* cb = c + i0 + j0 * s.ldc;
    const std::int64_t full_pairs = s.k / 2;
    __m512 accv[MV][NB];
    load_block(accv, cb, s.ldc, mask, acc);
    for (std::int64_t br = 0; br < brcount; ++br) {
      // A pair row p starts at (p * lda + i0) * 2 bf16.
      const bf16* ap = a[br] + i0 * 2;
      const bf16* bp = b[br] + j0 * s.ldb;
      for (std::int64_t p = 0; p < full_pairs; ++p) {
        __m512i av[MV];
#pragma GCC unroll 2
        for (int v = 0; v < MV; ++v)
          av[v] = _mm512_maskz_loadu_epi32(
              mask[v], reinterpret_cast<const std::int32_t*>(ap + v * 32));
#pragma GCC unroll 12
        for (int jj = 0; jj < NB; ++jj) {
          const __m512i bv = broadcast_pair(bp + jj * s.ldb);
#pragma GCC unroll 2
          for (int v = 0; v < MV; ++v)
            accv[v][jj] = _mm512_dpbf16_ps(accv[v][jj],
                                           reinterpret_cast<__m512bh>(av[v]),
                                           reinterpret_cast<__m512bh>(bv));
        }
        ap += 2 * s.lda;
        bp += 2;
      }
      if (s.k % 2 != 0) {
        // Odd k: the last pair's high half is zero-padded in A and B.
        __m512i av[MV];
#pragma GCC unroll 2
        for (int v = 0; v < MV; ++v)
          av[v] = _mm512_maskz_loadu_epi32(
              mask[v], reinterpret_cast<const std::int32_t*>(ap + v * 32));
#pragma GCC unroll 12
        for (int jj = 0; jj < NB; ++jj) {
          const __m512i bv =
              _mm512_set1_epi32(static_cast<std::int32_t>(bp[jj * s.ldb].bits));
#pragma GCC unroll 2
          for (int v = 0; v < MV; ++v)
            accv[v][jj] = _mm512_dpbf16_ps(accv[v][jj],
                                           reinterpret_cast<__m512bh>(av[v]),
                                           reinterpret_cast<__m512bh>(bv));
        }
      }
    }
    store_block(accv, cb, s.ldc, mask);
  }
};

}  // namespace

void gemm_bf16_vnni_avx512bf16(const MicroArgs& s, const bf16* const* a,
                               const bf16* const* b, std::int64_t brcount,
                               float* c, bool acc) {
  for_each_block(DpTile{s, a, b, brcount, c, acc}, s);
}

}  // namespace plt::tpp::detail
