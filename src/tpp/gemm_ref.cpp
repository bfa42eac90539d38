// Scalar reference microkernels. These define the numerics contract: every
// vectorized path must agree with these to within accumulation-order
// tolerance, and the test suite enforces it.
#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

void gemm_f32_ref(const MicroArgs& s, const float* const* a,
                  const float* const* b, std::int64_t brcount, float* c,
                  bool acc) {
  for (std::int64_t br = 0; br < brcount; ++br) {
    const bool add = acc || br > 0;
    for (std::int64_t j = 0; j < s.n; ++j) {
      const float* bj = b[br] + j * s.ldb;
      float* cj = c + j * s.ldc;
      for (std::int64_t i = 0; i < s.m; ++i) {
        float sum = add ? cj[i] : 0.0f;
        for (std::int64_t kk = 0; kk < s.k; ++kk) {
          sum += a[br][i + kk * s.lda] * bj[kk];
        }
        cj[i] = sum;
      }
    }
  }
}

void gemm_bf16_flat_ref(const MicroArgs& s, const bf16* const* a,
                        const bf16* const* b, std::int64_t brcount, float* c,
                        bool acc) {
  for (std::int64_t br = 0; br < brcount; ++br) {
    const bool add = acc || br > 0;
    for (std::int64_t j = 0; j < s.n; ++j) {
      const bf16* bj = b[br] + j * s.ldb;
      float* cj = c + j * s.ldc;
      for (std::int64_t i = 0; i < s.m; ++i) {
        float sum = add ? cj[i] : 0.0f;
        for (std::int64_t kk = 0; kk < s.k; ++kk) {
          sum += a[br][i + kk * s.lda].to_f32() * bj[kk].to_f32();
        }
        cj[i] = sum;
      }
    }
  }
}

void gemm_bf16_vnni_ref(const MicroArgs& s, const bf16* const* a,
                        const bf16* const* b, std::int64_t brcount, float* c,
                        bool acc) {
  // A is [ceil(k/2)][m][2]; mirror the pairwise accumulation of vdpbf16ps
  // (acc += a0*b0 + a1*b1 per pair) so the fast path matches bit-for-bit on
  // the same accumulation order.
  const std::int64_t kp = (s.k + 1) / 2;
  for (std::int64_t br = 0; br < brcount; ++br) {
    const bool add = acc || br > 0;
    for (std::int64_t j = 0; j < s.n; ++j) {
      const bf16* bj = b[br] + j * s.ldb;
      float* cj = c + j * s.ldc;
      for (std::int64_t i = 0; i < s.m; ++i) {
        float sum = add ? cj[i] : 0.0f;
        for (std::int64_t p = 0; p < kp; ++p) {
          const bf16* ap = a[br] + (p * s.lda + i) * 2;
          const float b0 = bj[2 * p].to_f32();
          const float b1 = (2 * p + 1 < s.k) ? bj[2 * p + 1].to_f32() : 0.0f;
          sum += ap[0].to_f32() * b0 + ap[1].to_f32() * b1;
        }
        cj[i] = sum;
      }
    }
  }
}

void f32_to_bf16_ref(const float* src, bf16* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) dst[i] = bf16::from_f32(src[i]);
}

void bf16_to_f32_ref(const bf16* src, float* dst, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) dst[i] = src[i].to_f32();
}

}  // namespace plt::tpp::detail
