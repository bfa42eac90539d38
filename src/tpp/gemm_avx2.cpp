// AVX2+FMA fp32 microkernel. Compiled with -mavx2 -mfma (see CMakeLists);
// only referenced when CPUID reports the features at runtime.
//
// Register blocking: 8-wide m vectors (ymm) x 4 accumulators in n — the
// classic 2D register-blocking strategy of [21] scaled to 16 ymm registers.
// The accumulators stay in registers across the whole batch.
#include "tpp/gemm_micro.hpp"

#include <immintrin.h>

namespace plt::tpp::detail {

namespace {

// Mask for the m-tail: lane i active iff i < rem.
__m256i tail_mask(std::int64_t rem) {
  alignas(32) std::int32_t lanes[8];
  for (int i = 0; i < 8; ++i) lanes[i] = i < rem ? -1 : 0;
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

template <int NB>
void block_n(const MicroArgs& s, const float* const* a,
             const float* const* b, std::int64_t brcount, float* c, bool acc,
             std::int64_t j0) {
  const std::int64_t m_full = s.m & ~std::int64_t(7);
  for (std::int64_t i = 0; i < m_full; i += 8) {
    __m256 accv[NB];
    for (int jj = 0; jj < NB; ++jj) {
      accv[jj] = acc ? _mm256_loadu_ps(c + i + (j0 + jj) * s.ldc)
                     : _mm256_setzero_ps();
    }
    for (std::int64_t br = 0; br < brcount; ++br) {
      for (std::int64_t kk = 0; kk < s.k; ++kk) {
        const __m256 av = _mm256_loadu_ps(a[br] + i + kk * s.lda);
        for (int jj = 0; jj < NB; ++jj) {
          const __m256 bv =
              _mm256_broadcast_ss(b[br] + kk + (j0 + jj) * s.ldb);
          accv[jj] = _mm256_fmadd_ps(av, bv, accv[jj]);
        }
      }
    }
    for (int jj = 0; jj < NB; ++jj) {
      _mm256_storeu_ps(c + i + (j0 + jj) * s.ldc, accv[jj]);
    }
  }
  const std::int64_t rem = s.m - m_full;
  if (rem > 0) {
    const __m256i mask = tail_mask(rem);
    for (int jj = 0; jj < NB; ++jj) {
      float* cj = c + m_full + (j0 + jj) * s.ldc;
      __m256 accv = acc ? _mm256_maskload_ps(cj, mask) : _mm256_setzero_ps();
      for (std::int64_t br = 0; br < brcount; ++br) {
        for (std::int64_t kk = 0; kk < s.k; ++kk) {
          const __m256 av =
              _mm256_maskload_ps(a[br] + m_full + kk * s.lda, mask);
          const __m256 bv =
              _mm256_broadcast_ss(b[br] + kk + (j0 + jj) * s.ldb);
          accv = _mm256_fmadd_ps(av, bv, accv);
        }
      }
      _mm256_maskstore_ps(cj, mask, accv);
    }
  }
}

}  // namespace

void gemm_f32_avx2(const MicroArgs& s, const float* const* a,
                   const float* const* b, std::int64_t brcount, float* c,
                   bool acc) {
  std::int64_t j = 0;
  for (; j + 4 <= s.n; j += 4) block_n<4>(s, a, b, brcount, c, acc, j);
  for (; j + 2 <= s.n; j += 2) block_n<2>(s, a, b, brcount, c, acc, j);
  for (; j < s.n; ++j) block_n<1>(s, a, b, brcount, c, acc, j);
}

}  // namespace plt::tpp::detail
