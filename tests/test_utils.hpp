// Shared test helpers: naive references and tolerance-aware comparisons.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bf16.hpp"
#include "common/rng.hpp"

namespace plt::test {

// Naive col-major GEMM: C(m x n) = beta * C + A(m x k) * B(k x n).
inline void naive_gemm(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t n, std::int64_t k,
                       std::int64_t lda, std::int64_t ldb, std::int64_t ldc,
                       float beta) {
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      double sum = beta == 0.0f ? 0.0 : static_cast<double>(c[i + j * ldc]);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        sum += static_cast<double>(a[i + kk * lda]) *
               static_cast<double>(b[kk + j * ldb]);
      }
      c[i + j * ldc] = static_cast<float>(sum);
    }
  }
}

// Relative-error comparison scaled by the reduction length.
inline void expect_allclose(const float* got, const float* want,
                            std::size_t n, float rel_tol,
                            const char* what = "") {
  for (std::size_t i = 0; i < n; ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], rel_tol * scale)
        << what << " mismatch at flat index " << i;
  }
}

// Bit-pattern equality (distinguishes -0.0 from 0.0 and compares NaNs).
inline void expect_bitwise(const float* got, const float* want, std::size_t n,
                           const std::string& what = "") {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t g, w;
    std::memcpy(&g, got + i, sizeof(g));
    std::memcpy(&w, want + i, sizeof(w));
    ASSERT_EQ(g, w) << what << " bits differ at flat index " << i << " ("
                    << got[i] << " vs " << want[i] << ")";
  }
}

inline std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                                     float lo = -1.0f, float hi = 1.0f) {
  std::vector<float> v(n);
  Xoshiro256 rng(seed);
  fill_uniform(v.data(), n, rng, lo, hi);
  return v;
}

inline std::vector<bf16> to_bf16(const std::vector<float>& v) {
  std::vector<bf16> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = bf16::from_f32(v[i]);
  return out;
}

inline std::vector<float> to_f32(const std::vector<bf16>& v) {
  std::vector<float> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i].to_f32();
  return out;
}

// Asserts every lane of a serving session is free, as a scheduler must
// leave it once it has shut down: each request gives back the lane it took.
// A template so this header stays independent of the serving layer.
template <typename SessionT>
void expect_all_lanes_free(SessionT& session) {
  std::vector<int> taken;
  for (int lane = session.acquire_lane(); lane >= 0;
       lane = session.acquire_lane()) {
    taken.push_back(lane);
  }
  for (const int lane : taken) session.release_lane(lane);
  EXPECT_EQ(taken.size(), static_cast<std::size_t>(session.lanes()))
      << session.name() << ": lanes free out of " << session.lanes();
}

}  // namespace plt::test
