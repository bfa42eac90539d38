// AVX-512 fp32 and bf16-VNNI microkernels plus the vector fp32 <-> bf16
// conversion of a bf16 C tile. Compiled with -mavx512f/bw/vl/dq (see
// CMakeLists); only referenced when CPUID agrees.
//
// fp32: register blocks of gemm_avx512_blocking.hpp (2 x 8 or 1 x 12 16-lane
// vectors), loaded once per call and kept in registers across the batch.
// bf16-VNNI: A packed [k/2][m][2]; pairs of k are consumed per FMA. This
// upconvert path widens bf16 to fp32 in registers so it runs on any AVX-512
// machine; gemm_bf16_vnni_avx512bf16 (separate TU) uses the native
// vdpbf16ps dot-product.
//
// Every loop over the register block is fully unrolled: left rolled, GCC
// keeps the accumulator array in memory and stores it on every k step.
#include <immintrin.h>

#include "tpp/gemm_avx512_blocking.hpp"
#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

namespace {

struct F32Tile {
  const MicroArgs& s;
  const float* const* a;
  const float* const* b;
  std::int64_t brcount;
  float* c;
  bool acc;

  template <int MV, int NB>
  void run(std::int64_t i0, std::int64_t j0, __mmask16 tail) const {
    __mmask16 mask[MV];
    block_masks(tail, mask);
    float* cb = c + i0 + j0 * s.ldc;
    __m512 accv[MV][NB];
    load_block(accv, cb, s.ldc, mask, acc);
    for (std::int64_t br = 0; br < brcount; ++br) {
      const float* ap = a[br] + i0;
      const float* bp = b[br] + j0 * s.ldb;
      for (std::int64_t kk = 0; kk < s.k; ++kk) {
        __m512 av[MV];
#pragma GCC unroll 2
        for (int v = 0; v < MV; ++v)
          av[v] = _mm512_maskz_loadu_ps(mask[v], ap + v * 16);
#pragma GCC unroll 12
        for (int jj = 0; jj < NB; ++jj) {
          const __m512 bv = _mm512_set1_ps(bp[jj * s.ldb]);
#pragma GCC unroll 2
          for (int v = 0; v < MV; ++v)
            accv[v][jj] = _mm512_fmadd_ps(av[v], bv, accv[v][jj]);
        }
        ap += s.lda;
        bp += 1;
      }
    }
    store_block(accv, cb, s.ldc, mask);
  }
};

// Widens the even/odd bf16 elements of a [m][2]-packed 32-lane vector into
// two fp32 vectors. Element layout in memory: m0k0 m0k1 m1k0 m1k1 ...
inline void widen_pairs(__m512i packed, __m512& even, __m512& odd) {
  // even lanes: bf16 at 16-bit positions 0,2,4,... -> shift left 16 into the
  // high half of each 32-bit lane (bf16 is the top 16 bits of fp32).
  even = _mm512_castsi512_ps(_mm512_slli_epi32(packed, 16));
  odd = _mm512_castsi512_ps(
      _mm512_and_si512(packed, _mm512_set1_epi32(0xffff0000)));
}

// Same blocking as F32Tile; each k pair costs two FMAs per accumulator.
struct Bf16UpconvertTile {
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
    const std::int64_t kp = (s.k + 1) / 2;
    __m512 accv[MV][NB];
    load_block(accv, cb, s.ldc, mask, acc);
    for (std::int64_t br = 0; br < brcount; ++br) {
      const bf16* bp = b[br] + j0 * s.ldb;
      for (std::int64_t p = 0; p < kp; ++p) {
        // 16 m-elements x 2 k-values = 32 bf16 = 16 x 32-bit granules.
        const bf16* ap = a[br] + (p * s.lda + i0) * 2;
        __m512 even[MV], odd[MV];
#pragma GCC unroll 2
        for (int v = 0; v < MV; ++v)
          widen_pairs(_mm512_maskz_loadu_epi32(
                          mask[v],
                          reinterpret_cast<const std::int32_t*>(ap + v * 32)),
                      even[v], odd[v]);
#pragma GCC unroll 12
        for (int jj = 0; jj < NB; ++jj) {
          const bf16* bj = bp + jj * s.ldb;
          const __m512 b0 = _mm512_set1_ps(bj[2 * p].to_f32());
          const __m512 b1 =
              _mm512_set1_ps((2 * p + 1 < s.k) ? bj[2 * p + 1].to_f32() : 0.0f);
#pragma GCC unroll 2
          for (int v = 0; v < MV; ++v) {
            accv[v][jj] = _mm512_fmadd_ps(even[v], b0, accv[v][jj]);
            accv[v][jj] = _mm512_fmadd_ps(odd[v], b1, accv[v][jj]);
          }
        }
      }
    }
    store_block(accv, cb, s.ldc, mask);
  }
};

}  // namespace

void gemm_f32_avx512(const MicroArgs& s, const float* const* a,
                     const float* const* b, std::int64_t brcount, float* c,
                     bool acc) {
  for_each_block(F32Tile{s, a, b, brcount, c, acc}, s);
}

void gemm_bf16_vnni_avx512(const MicroArgs& s, const bf16* const* a,
                           const bf16* const* b, std::int64_t brcount,
                           float* c, bool acc) {
  for_each_block(Bf16UpconvertTile{s, a, b, brcount, c, acc}, s);
}

// bf16::from_f32 on 16 lanes: round to nearest even by adding 0x7fff plus
// the kept LSB, NaN quietened with its high bits kept. vcvtneps2bf16 is not
// used because it flushes denormals.
void f32_to_bf16_avx512(const float* src, bf16* dst, std::int64_t count) {
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i round = _mm512_set1_epi32(0x7fff);
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512i inf = _mm512_set1_epi32(0x7f800000);
  const __m512i quiet = _mm512_set1_epi32(0x0040);
  for (std::int64_t i = 0; i < count; i += 16) {
    const __mmask16 mask = lane_mask(count - i);
    const __m512i u = _mm512_maskz_loadu_epi32(mask, src + i);
    const __m512i high = _mm512_srli_epi32(u, 16);
    const __m512i lsb = _mm512_and_si512(high, one);
    __m512i r = _mm512_srli_epi32(
        _mm512_add_epi32(u, _mm512_add_epi32(round, lsb)), 16);
    const __mmask16 nan =
        _mm512_cmpgt_epu32_mask(_mm512_and_si512(u, abs_mask), inf);
    r = _mm512_mask_mov_epi32(r, nan, _mm512_or_si512(high, quiet));
    _mm512_mask_cvtepi32_storeu_epi16(dst + i, mask, r);
  }
}

void bf16_to_f32_avx512(const bf16* src, float* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; i += 16) {
    const __mmask16 mask = lane_mask(count - i);
    const __m512i w = _mm512_cvtepu16_epi32(_mm256_maskz_loadu_epi16(mask, src + i));
    _mm512_mask_storeu_ps(dst + i, mask,
                          _mm512_castsi512_ps(_mm512_slli_epi32(w, 16)));
  }
}

}  // namespace plt::tpp::detail
