#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu_features.hpp"
#include "test_utils.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"

namespace plt::tpp {
namespace {

using plt::test::expect_allclose;
using plt::test::expect_bitwise;
using plt::test::naive_gemm;
using plt::test::random_vec;
using plt::test::to_bf16;

// ---------- fp32 shape sweep against the naive reference ----------

using ShapeParam = std::tuple<std::int64_t, std::int64_t, std::int64_t, float>;

class GemmF32P : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmF32P, MatchesNaive) {
  const auto [m, n, k, beta] = GetParam();
  auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  auto c0 = random_vec(static_cast<std::size_t>(m * n), 3);
  std::vector<float> got = c0, want = c0;
  GemmTPP gemm(m, n, k, beta);
  gemm(a.data(), b.data(), got.data());
  naive_gemm(a.data(), b.data(), want.data(), m, n, k, m, k, m, beta);
  expect_allclose(got.data(), want.data(), got.size(),
                  1e-5f * static_cast<float>(k), "gemm f32");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmF32P,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 8, 16, 17, 33),
                       ::testing::Values<std::int64_t>(1, 2, 5, 16),
                       ::testing::Values<std::int64_t>(1, 7, 32),
                       ::testing::Values(0.0f, 1.0f)));

// ---------- vectorized paths agree with the scalar reference ----------

TEST(GemmMicro, VectorPathsMatchScalar) {
  const detail::MicroArgs args{33, 9, 21, 40, 25, 35};
  auto a = random_vec(static_cast<std::size_t>(args.lda * args.k), 5);
  auto b = random_vec(static_cast<std::size_t>(args.ldb * args.n), 6);
  auto c0 = random_vec(static_cast<std::size_t>(args.ldc * args.n), 7);

  const float* ap = a.data();
  const float* bp = b.data();
  std::vector<float> want = c0;
  detail::gemm_f32_ref(args, &ap, &bp, 1, want.data(), true);

#if defined(PLT_KERNELS_AVX2)
  if (cpu_features().avx2 && cpu_features().fma) {
    std::vector<float> got = c0;
    detail::gemm_f32_avx2(args, &ap, &bp, 1, got.data(), true);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx2");
  }
#endif
#if defined(PLT_KERNELS_AVX512)
  if (cpu_features().avx512f && cpu_features().avx512bw &&
      cpu_features().avx512vl) {
    std::vector<float> got = c0;
    detail::gemm_f32_avx512(args, &ap, &bp, 1, got.data(), true);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx512");
  }
#endif
}

TEST(GemmMicro, Bf16VnniPathsMatchScalarRef) {
  const std::int64_t m = 29, n = 7, k = 18;
  auto af = random_vec(static_cast<std::size_t>(m * k), 8);
  auto bflat = to_bf16(random_vec(static_cast<std::size_t>(k * n), 9));
  auto aflat = to_bf16(af);
  std::vector<bf16> avnni(static_cast<std::size_t>(vnni2_elems(m, k)));
  vnni2_pack(aflat.data(), avnni.data(), m, k, m);

  const detail::MicroArgs args{m, n, k, m, k, m};
  const bf16* ap = avnni.data();
  const bf16* bp = bflat.data();
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  detail::gemm_bf16_vnni_ref(args, &ap, &bp, 1, want.data(), false);

#if defined(PLT_KERNELS_AVX512)
  if (cpu_features().avx512f && cpu_features().avx512bw &&
      cpu_features().avx512vl) {
    std::vector<float> got(want.size(), 0.0f);
    detail::gemm_bf16_vnni_avx512(args, &ap, &bp, 1, got.data(), false);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx512 up");
  }
#endif
#if defined(PLT_KERNELS_AVX512BF16)
  if (cpu_features().avx512_bf16) {
    std::vector<float> got(want.size(), 0.0f);
    detail::gemm_bf16_vnni_avx512bf16(args, &ap, &bp, 1, got.data(), false);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "vdpbf16ps");
  }
#endif
}

// ---------- bf16 end-to-end against an fp32 reference ----------

using Bf16Param = std::tuple<std::int64_t, std::int64_t, std::int64_t, bool>;

class GemmBf16P : public ::testing::TestWithParam<Bf16Param> {};

TEST_P(GemmBf16P, VnniGemmTracksF32Reference) {
  const auto [m, n, k, c_bf16] = GetParam();
  auto af = random_vec(static_cast<std::size_t>(m * k), 11);
  auto bf = random_vec(static_cast<std::size_t>(k * n), 12);
  auto a16 = to_bf16(af);
  auto b16 = to_bf16(bf);
  std::vector<bf16> avnni(static_cast<std::size_t>(vnni2_elems(m, k)));
  vnni2_pack(a16.data(), avnni.data(), m, k, m);

  // Reference on the rounded values (isolates accumulation error).
  auto ar = plt::test::to_f32(a16);
  auto br = plt::test::to_f32(b16);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  naive_gemm(ar.data(), br.data(), want.data(), m, n, k, m, k, m, 0.0f);

  if (c_bf16) {
    std::vector<bf16> got(static_cast<std::size_t>(m * n));
    GemmTPP gemm(m, n, k, 0.0f, DType::BF16, DType::BF16, DType::BF16,
                 ALayout::kVnni2);
    gemm(avnni.data(), b16.data(), got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const float scale = std::max(1.0f, std::fabs(want[i]));
      EXPECT_NEAR(got[i].to_f32(), want[i], 0.02f * scale) << i;
    }
  } else {
    std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
    GemmTPP gemm(m, n, k, 0.0f, DType::BF16, DType::BF16, DType::F32,
                 ALayout::kVnni2);
    gemm(avnni.data(), b16.data(), got.data());
    expect_allclose(got.data(), want.data(), got.size(),
                    1e-5f * static_cast<float>(k), "bf16->f32");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBf16P,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 31),
                       ::testing::Values<std::int64_t>(1, 6),
                       ::testing::Values<std::int64_t>(2, 9, 32),
                       ::testing::Bool()));

// ---------- batch-reduce semantics and the three variants ----------

TEST(Brgemm, StrideVariantReducesBatch) {
  const std::int64_t m = 8, n = 6, k = 4, count = 5;
  const std::int64_t stride_a = m * k, stride_b = k * n;
  auto a = random_vec(static_cast<std::size_t>(stride_a * count), 21);
  auto b = random_vec(static_cast<std::size_t>(stride_b * count), 22);
  std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> want(got.size(), 0.0f);
  BrgemmTPP brgemm(m, n, k, stride_a, stride_b, 0.0f);
  brgemm(a.data(), b.data(), got.data(), count);
  for (std::int64_t i = 0; i < count; ++i) {
    naive_gemm(a.data() + i * stride_a, b.data() + i * stride_b, want.data(),
               m, n, k, m, k, m, 1.0f);
  }
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "stride");
}

TEST(Brgemm, AddressAndOffsetVariantsMatchStride) {
  const std::int64_t m = 7, n = 5, k = 6, count = 4;
  const std::int64_t stride_a = m * k, stride_b = k * n;
  auto a = random_vec(static_cast<std::size_t>(stride_a * count), 31);
  auto b = random_vec(static_cast<std::size_t>(stride_b * count), 32);

  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  BrgemmTPP stride(m, n, k, stride_a, stride_b, 0.0f);
  stride(a.data(), b.data(), want.data(), count);

  std::vector<const void*> ap, bp;
  std::vector<std::int64_t> oa, ob;
  for (std::int64_t i = 0; i < count; ++i) {
    ap.push_back(a.data() + i * stride_a);
    bp.push_back(b.data() + i * stride_b);
    oa.push_back(i * stride_a);
    ob.push_back(i * stride_b);
  }

  std::vector<float> got(want.size(), 0.0f);
  BrgemmTPP addr(BrgemmDesc{m, n, k, 0, 0, 0, DType::F32, DType::F32,
                            DType::F32, 0.0f, BrgemmVariant::kAddress,
                            ALayout::kFlat, 0, 0});
  addr.run_address(ap.data(), bp.data(), got.data(), count);
  expect_allclose(got.data(), want.data(), got.size(), 1e-6f, "address");

  std::fill(got.begin(), got.end(), 0.0f);
  BrgemmTPP offs(BrgemmDesc{m, n, k, 0, 0, 0, DType::F32, DType::F32,
                            DType::F32, 0.0f, BrgemmVariant::kOffset,
                            ALayout::kFlat, 0, 0});
  offs.run_offset(a.data(), b.data(), got.data(), oa.data(), ob.data(), count);
  expect_allclose(got.data(), want.data(), got.size(), 1e-6f, "offset");
}

TEST(Brgemm, EmptyBatchHonoursBeta) {
  const std::int64_t m = 4, n = 3;
  std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
  BrgemmTPP beta0(m, n, 2, 0, 0, 0.0f);
  beta0(nullptr, nullptr, c.data(), 0);
  for (float v : c) EXPECT_EQ(v, 0.0f);

  std::fill(c.begin(), c.end(), 2.0f);
  BrgemmTPP beta1(m, n, 2, 0, 0, 1.0f);
  beta1(nullptr, nullptr, c.data(), 0);
  for (float v : c) EXPECT_EQ(v, 2.0f);
}

TEST(Brgemm, Bf16AccumulationStaysFp32AcrossBatch) {
  // Summing `count` copies of small values would lose bits if the batch
  // accumulated in bf16; the fp32 scratch must keep them.
  const std::int64_t m = 2, n = 2, k = 2, count = 64;
  std::vector<bf16> a(static_cast<std::size_t>(vnni2_elems(m, k)) *
                      static_cast<std::size_t>(count));
  std::vector<bf16> b(static_cast<std::size_t>(k * n * count));
  std::vector<bf16> flat(static_cast<std::size_t>(m * k));
  for (auto& v : flat) v = bf16::from_f32(0.001f);
  for (std::int64_t i = 0; i < count; ++i)
    vnni2_pack(flat.data(), a.data() + i * vnni2_elems(m, k), m, k, m);
  for (auto& v : b) v = bf16::from_f32(1.0f);

  std::vector<bf16> c(static_cast<std::size_t>(m * n));
  BrgemmTPP brgemm(m, n, k, vnni2_elems(m, k), k * n, 0.0f, DType::BF16,
                   DType::BF16, DType::BF16, ALayout::kVnni2);
  brgemm(a.data(), b.data(), c.data(), count);
  const float q = bf16::from_f32(0.001f).to_f32();
  const float expected = q * static_cast<float>(k) * static_cast<float>(count);
  // Loose check: the result is near k*count*q and far from a bf16-step
  // truncation plateau.
  for (const bf16& v : c) {
    EXPECT_NEAR(v.to_f32(), expected, 0.02f * expected);
  }
}

// ---------- batch reduction in registers == successive single calls ----------

// One BRGEMM over `count` blocks through the given address variant, with
// padded leading dimensions (lda = m+1, ldb = k+2, ldc = m+3).
template <typename T>
void run_variant(BrgemmVariant variant, std::int64_t m, std::int64_t n,
                 std::int64_t k, float beta, DType dt, ALayout layout,
                 std::int64_t a_blk, std::int64_t b_blk, const T* a,
                 const T* b, float* c, std::int64_t count) {
  BrgemmTPP brgemm(BrgemmDesc{m, n, k, m + 1, k + 2, m + 3, dt, dt,
                              DType::F32, beta, variant, layout, a_blk,
                              b_blk});
  std::vector<const void*> ap, bp;
  std::vector<std::int64_t> oa, ob;
  for (std::int64_t i = 0; i < count; ++i) {
    ap.push_back(a + i * a_blk);
    bp.push_back(b + i * b_blk);
    oa.push_back(i * a_blk);
    ob.push_back(i * b_blk);
  }
  switch (variant) {
    case BrgemmVariant::kStride:
      brgemm(a, b, c, count);
      break;
    case BrgemmVariant::kAddress:
      brgemm.run_address(ap.data(), bp.data(), c, count);
      break;
    case BrgemmVariant::kOffset:
      brgemm.run_offset(a, b, c, oa.data(), ob.data(), count);
      break;
  }
}

// Every variant's brcount-B call equals B brcount-1 calls bit for bit: each
// C element accumulates in (batch index, k) order either way.
template <typename T>
void expect_batch_equals_singles(std::int64_t m, std::int64_t n,
                                 std::int64_t k, std::int64_t count, float beta,
                                 DType dt, ALayout layout, std::int64_t a_blk,
                                 const T* a, const T* b) {
  const std::int64_t ldc = m + 3, b_blk = (k + 2) * n;
  const auto c0 = random_vec(static_cast<std::size_t>(ldc * n), 41);
  std::vector<float> want = c0;
  for (std::int64_t i = 0; i < count; ++i) {
    run_variant(BrgemmVariant::kStride, m, n, k, i == 0 ? beta : 1.0f, dt,
                layout, a_blk, b_blk, a + i * a_blk, b + i * b_blk,
                want.data(), 1);
  }
  for (BrgemmVariant v : {BrgemmVariant::kStride, BrgemmVariant::kAddress,
                          BrgemmVariant::kOffset}) {
    std::vector<float> got = c0;
    run_variant(v, m, n, k, beta, dt, layout, a_blk, b_blk, a, b, got.data(),
                count);
    expect_bitwise(got.data(), want.data(), got.size(),
                   "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                       " count=" + std::to_string(count) + " variant=" +
                       std::to_string(static_cast<int>(v)));
  }
}

TEST(BrgemmBatch, F32BatchEqualsSuccessiveSingleCallsBitwise) {
  const std::int64_t k = 7, count = 3;
  for (std::int64_t m : {1, 15, 16, 17, 31, 32, 33, 48, 64})
    for (std::int64_t n : {1, 2, 3, 4, 7, 8, 9, 12, 13, 56}) {
      const std::int64_t a_blk = (m + 1) * k, b_blk = (k + 2) * n;
      const auto a = random_vec(static_cast<std::size_t>(a_blk * count), 42);
      const auto b = random_vec(static_cast<std::size_t>(b_blk * count), 43);
      for (float beta : {0.0f, 1.0f})
        expect_batch_equals_singles(m, n, k, count, beta, DType::F32,
                                    ALayout::kFlat, a_blk, a.data(), b.data());
    }
}

TEST(BrgemmBatch, F32BatchLongerThanOneChunk) {
  // BrgemmTPP hands an fp32 batch over in chunks of as many A blocks as fit
  // in 16 KB (at most 64): 24 blocks of 33x5, so 150 spans seven chunks, and
  // 4 blocks of 32x32, so 9 spans three with a tail of one.
  struct Case {
    std::int64_t m, n, k, count;
  };
  for (const Case& t : {Case{33, 13, 5, 150}, Case{32, 32, 32, 9}}) {
    const std::int64_t a_blk = (t.m + 1) * t.k, b_blk = (t.k + 2) * t.n;
    const auto a = random_vec(static_cast<std::size_t>(a_blk * t.count), 44);
    const auto b = random_vec(static_cast<std::size_t>(b_blk * t.count), 45);
    expect_batch_equals_singles(t.m, t.n, t.k, t.count, 0.0f, DType::F32,
                                ALayout::kFlat, a_blk, a.data(), b.data());
  }
}

TEST(BrgemmBatch, Bf16VnniBatchEqualsSuccessiveSingleCallsBitwise) {
  // fp32 C: the batch stays in fp32 both ways, so the sums match bit for bit.
  const std::int64_t count = 3;
  for (std::int64_t k : {7, 8})
    for (std::int64_t m : {1, 16, 17, 33})
      for (std::int64_t n : {1, 3, 8, 13}) {
        // VNNI2 blocks with lda = m + 1 pairs: [ceil(k/2)][m+1][2].
        const std::int64_t a_blk = (k + 1) / 2 * (m + 1) * 2;
        const std::int64_t b_blk = (k + 2) * n;
        const auto a = to_bf16(random_vec(static_cast<std::size_t>(a_blk * count), 46));
        const auto b = to_bf16(random_vec(static_cast<std::size_t>(b_blk * count), 47));
        expect_batch_equals_singles(m, n, k, count, 0.0f, DType::BF16,
                                    ALayout::kVnni2, a_blk, a.data(), b.data());
      }
}

// ---------- AMX tiles (tdpbf16ps) ----------

// Skips the calling test unless the ISA level reaches AMX (the kernel is
// compiled, the CPU and OS support it and the OS granted tile data).
#define SKIP_UNLESS_AMX()                                                  \
  if (effective_isa() < IsaLevel::kAMXBF16)                                \
  GTEST_SKIP() << "AMX level unavailable (effective ISA "                 \
               << isa_name(effective_isa()) << ")"

#if PLT_KERNELS_AVX512BF16 >= 2
// One shape through the AMX kernel and the scalar VNNI reference, with
// padded leading dimensions; a and b hold `count` blocks of a_blk / b_blk.
void expect_amx_matches_ref(std::int64_t m, std::int64_t n, std::int64_t k,
                            std::int64_t count, std::int64_t lda,
                            std::int64_t ldb, std::int64_t ldc,
                            std::int64_t a_blk, std::int64_t b_blk,
                            const bf16* a, const bf16* b) {
  const detail::AmxTiles tiles = detail::amx_tiles(n, k);
  const detail::MicroArgs args{m, n, k, lda, ldb, ldc, &tiles};
  std::vector<const bf16*> ap, bp;
  for (std::int64_t i = 0; i < count; ++i) {
    ap.push_back(a + i * a_blk);
    bp.push_back(b + i * b_blk);
  }
  const auto c0 = random_vec(static_cast<std::size_t>(ldc * n), 52);
  std::vector<float> want = c0, got = c0;
  detail::gemm_bf16_vnni_ref(args, ap.data(), bp.data(), count, want.data(),
                             true);
  detail::gemm_bf16_vnni_amx(args, ap.data(), bp.data(), count, got.data(),
                             true);
  const std::string what = "amx m=" + std::to_string(m) + " n=" +
                           std::to_string(n) + " k=" + std::to_string(k) +
                           " count=" + std::to_string(count);
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, what.c_str());
}
#endif

TEST(GemmAmx, MatchesVnniRefOverShapesAndBatches) {
  SKIP_UNLESS_AMX();
#if PLT_KERNELS_AVX512BF16 >= 2
  // Fixed padded strides large enough for every shape: lda 50 pairs,
  // ldb 67, ldc 53; blocks of the largest k.
  const std::int64_t lda = 50, ldb = 67, ldc = 53, max_k = 64, max_n = 33;
  const std::int64_t a_blk = max_k / 2 * lda * 2, b_blk = ldb * max_n;
  const std::int64_t max_count = 65;
  const auto a = to_bf16(random_vec(static_cast<std::size_t>(a_blk * max_count), 50));
  const auto b = to_bf16(random_vec(static_cast<std::size_t>(b_blk * max_count), 51));
  for (std::int64_t m : {16, 32, 48})
    for (std::int64_t n = 1; n <= max_n; ++n)
      for (std::int64_t k = 2; k <= max_k; k += 2) {
        ASSERT_TRUE(detail::amx_takes(m, k));
        for (std::int64_t count : {1, 3})
          expect_amx_matches_ref(m, n, k, count, lda, ldb, ldc, a_blk, b_blk,
                                 a.data(), b.data());
        // Past BrgemmTPP's 64-pair chunk; every k chunking (kc 2, 32, 22).
        if (k == 2 || k == 44 || k == 64)
          expect_amx_matches_ref(m, n, k, max_count, lda, ldb, ldc, a_blk,
                                 b_blk, a.data(), b.data());
      }
  // Shapes AMX does not take stay on vdpbf16ps.
  EXPECT_FALSE(detail::amx_takes(17, 32));
  EXPECT_FALSE(detail::amx_takes(32, 31));
#endif
}

TEST(GemmAmx, BatchEqualsSuccessiveSingleCallsBitwise) {
  SKIP_UNLESS_AMX();
#if PLT_KERNELS_AVX512BF16 >= 2
  // The kernel itself, fp32 C: one brcount-B call vs B brcount-1 calls.
  const std::int64_t m = 48, k = 64, count = 5;
  const std::int64_t a_blk = vnni2_elems(m, k), b_blk = k * 33;
  const auto a = to_bf16(random_vec(static_cast<std::size_t>(a_blk * count), 53));
  const auto b = to_bf16(random_vec(static_cast<std::size_t>(b_blk * count), 54));
  for (std::int64_t n : {1, 7, 16, 17, 32, 33}) {
    const detail::AmxTiles tiles = detail::amx_tiles(n, k);
    const detail::MicroArgs args{m, n, k, m, k, m, &tiles};
    std::vector<const bf16*> ap, bp;
    for (std::int64_t i = 0; i < count; ++i) {
      ap.push_back(a.data() + i * a_blk);
      bp.push_back(b.data() + i * b_blk);
    }
    std::vector<float> batch(static_cast<std::size_t>(m * n));
    std::vector<float> singles(batch.size());
    detail::gemm_bf16_vnni_amx(args, ap.data(), bp.data(), count,
                               batch.data(), false);
    for (std::int64_t i = 0; i < count; ++i)
      detail::gemm_bf16_vnni_amx(args, &ap[static_cast<std::size_t>(i)],
                                 &bp[static_cast<std::size_t>(i)], 1,
                                 singles.data(), i > 0);
    expect_bitwise(batch.data(), singles.data(), batch.size(),
                   "amx n=" + std::to_string(n));
  }
  // Through BrgemmTPP, every address variant, batches within and past
  // one pointer chunk.
  for (std::int64_t mm : {16, 32, 48})
    for (std::int64_t n : {1, 5, 16, 17, 33})
      for (std::int64_t kk : {2, 32, 64})
        for (std::int64_t cnt : {3, 65}) {
          const std::int64_t blk_a = kk / 2 * (mm + 1) * 2;
          const std::int64_t blk_b = (kk + 2) * n;
          const auto av = to_bf16(random_vec(static_cast<std::size_t>(blk_a * cnt), 55));
          const auto bv = to_bf16(random_vec(static_cast<std::size_t>(blk_b * cnt), 56));
          expect_batch_equals_singles(mm, n, kk, cnt, 0.0f, DType::BF16,
                                      ALayout::kVnni2, blk_a, av.data(),
                                      bv.data());
        }
#endif
}

// ---------- vector fp32 <-> bf16 conversion of a bf16 C tile ----------

std::vector<float> conversion_inputs() {
  const std::uint32_t patterns[] = {
      0x00000000u, 0x80000000u, 0x3f800000u, 0xbf800000u,
      0x3f808000u, 0x3f818000u, 0xbf808000u, 0xbf818000u,  // ties
      0x3f807fffu, 0x3f808001u, 0x3f80ffffu,
      0x00000001u, 0x00008000u, 0x00018000u, 0x007fffffu,  // denormals
      0x807fffffu, 0x80008000u, 0x00007fffu,
      0x7f7fffffu, 0xff7fffffu,                            // round to inf
      0x7f800000u, 0xff800000u,                            // +-inf
      0x7fc00000u, 0x7f800001u, 0x7fbfffffu, 0xffffffffu,  // NaNs
      0xff800001u, 0x7fff8000u};
  std::vector<float> v;
  for (std::uint32_t u : patterns) {
    float f;
    std::memcpy(&f, &u, sizeof(f));
    v.push_back(f);
  }
  Xoshiro256 rng(48);
  for (int i = 0; i < 4099; ++i) {
    const std::uint32_t u = rng.next_u32();
    float f;
    std::memcpy(&f, &u, sizeof(f));
    v.push_back(f);
  }
  return v;
}

void expect_converters_exact(detail::ToBf16 to, detail::FromBf16 from,
                             const char* what) {
  const std::vector<float> in = conversion_inputs();
  // Lengths around the 16-lane tails, each followed by guard elements that
  // must stay untouched.
  for (std::size_t count : {in.size(), std::size_t{1}, std::size_t{15},
                            std::size_t{17}, std::size_t{31}}) {
    std::vector<bf16> out(count + 8);
    for (bf16& g : out) g.bits = 0xabcd;
    to(in.data(), out.data(), static_cast<std::int64_t>(count));
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(out[i].bits, bf16::from_f32(in[i]).bits)
          << what << " to-bf16 at " << i;
    for (std::size_t i = count; i < out.size(); ++i)
      ASSERT_EQ(out[i].bits, 0xabcd) << what << " wrote past " << count;
  }
  std::vector<bf16> all(65536 + 3);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i].bits = static_cast<std::uint16_t>(i);
  std::vector<float> back(all.size() + 8, 7.0f);
  from(all.data(), back.data(), static_cast<std::int64_t>(all.size()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const float want = all[i].to_f32();
    ASSERT_EQ(std::memcmp(&back[i], &want, sizeof(float)), 0)
        << what << " from-bf16 at " << i;
  }
  for (std::size_t i = all.size(); i < back.size(); ++i)
    ASSERT_EQ(back[i], 7.0f) << what << " wrote past the end";
}

TEST(Bf16Convert, VectorMatchesFromF32BitForBit) {
  expect_converters_exact(detail::f32_to_bf16_ref, detail::bf16_to_f32_ref,
                          "ref");
#if defined(PLT_KERNELS_AVX512)
  if (cpu_features().avx512f && cpu_features().avx512bw &&
      cpu_features().avx512vl) {
    expect_converters_exact(detail::f32_to_bf16_avx512,
                            detail::bf16_to_f32_avx512, "avx512");
  }
#endif
}

TEST(Bf16Convert, Bf16CTileRoundsLikeFromF32) {
  // fp32 operands with a bf16 C: the tile accumulates in fp32 and is rounded
  // once, exactly as bf16::from_f32 rounds the fp32 result.
  const std::int64_t m = 37, n = 11, k = 9, count = 4;
  const auto a = random_vec(static_cast<std::size_t>(m * k * count), 49);
  const auto b = random_vec(static_cast<std::size_t>(k * n * count), 50);
  const auto c0 = to_bf16(random_vec(static_cast<std::size_t>(m * n), 51));
  std::vector<float> want = plt::test::to_f32(c0);
  BrgemmTPP f32c(m, n, k, m * k, k * n, 1.0f);
  f32c(a.data(), b.data(), want.data(), count);
  std::vector<bf16> got = c0;
  BrgemmTPP bf16c(m, n, k, m * k, k * n, 1.0f, DType::F32, DType::F32,
                  DType::BF16);
  bf16c(a.data(), b.data(), got.data(), count);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i].bits, bf16::from_f32(want[i]).bits) << i;
}

TEST(Brgemm, RejectsInvalidDescriptors) {
  EXPECT_THROW(BrgemmTPP(0, 1, 1, 0, 0, 0.0f), std::invalid_argument);
  EXPECT_THROW(BrgemmTPP(1, 1, 1, 0, 0, 0.5f), std::invalid_argument);
  // VNNI layout is a low-precision feature.
  EXPECT_THROW(BrgemmTPP(4, 4, 4, 0, 0, 0.0f, DType::F32, DType::F32,
                         DType::F32, ALayout::kVnni2),
               std::invalid_argument);
}

TEST(Brgemm, ReportsFlops) {
  BrgemmTPP brgemm(8, 4, 2, 0, 0, 0.0f);
  EXPECT_DOUBLE_EQ(brgemm.flops(3), 2.0 * 8 * 4 * 2 * 3);
}

}  // namespace
}  // namespace plt::tpp
