#include "tpp/brgemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/cpu_features.hpp"

namespace plt::tpp {

namespace {

detail::F32Micro pick_f32_micro() {
  switch (effective_isa()) {
#if defined(PLT_KERNELS_AVX512)
    case IsaLevel::kAVX512BF16:
    case IsaLevel::kAVX512:
      return detail::gemm_f32_avx512;
#endif
#if defined(PLT_KERNELS_AVX2)
    case IsaLevel::kAVX2:
      return detail::gemm_f32_avx2;
#endif
    default:
      return detail::gemm_f32_ref;
  }
}

detail::Bf16Micro pick_bf16_vnni_micro() {
  switch (effective_isa()) {
#if defined(PLT_KERNELS_AVX512BF16)
    case IsaLevel::kAVX512BF16:
      return detail::gemm_bf16_vnni_avx512bf16;
#endif
#if defined(PLT_KERNELS_AVX512)
    case IsaLevel::kAVX512:
#if !defined(PLT_KERNELS_AVX512BF16)
    case IsaLevel::kAVX512BF16:
#endif
      return detail::gemm_bf16_vnni_avx512;
#endif
    default:
      return detail::gemm_bf16_vnni_ref;
  }
}

// Per-thread fp32 scratch tile used when C is stored in bf16.
float* scratch_tile(std::size_t elems) {
  thread_local std::vector<float> buf;
  if (buf.size() < elems) buf.resize(elems);
  return buf.data();
}

// Hands the batch to the microkernel as pointer arrays, in stack chunks of
// kChunk pairs; every chunk after the first accumulates onto the previous.
template <typename T, typename Micro, typename NextA, typename NextB>
void reduce_batch(Micro micro, const detail::MicroArgs& args, NextA& next_a,
                  NextB& next_b, std::int64_t brcount, float* c, bool acc) {
  constexpr std::int64_t kChunk = 64;
  const T* a[kChunk];
  const T* b[kChunk];
  for (std::int64_t i0 = 0; i0 < brcount; i0 += kChunk) {
    const std::int64_t count = std::min(kChunk, brcount - i0);
    for (std::int64_t i = 0; i < count; ++i) {
      a[i] = static_cast<const T*>(next_a(i0 + i));
      b[i] = static_cast<const T*>(next_b(i0 + i));
    }
    micro(args, a, b, count, c, acc || i0 > 0);
  }
}

}  // namespace

BrgemmTPP::BrgemmTPP(BrgemmDesc desc) : desc_(desc) {
  PLT_CHECK(desc_.m > 0 && desc_.n > 0 && desc_.k > 0, "brgemm: empty shape");
  PLT_CHECK(desc_.beta == 0.0f || desc_.beta == 1.0f,
            "brgemm: beta must be 0 or 1");
  if (desc_.lda == 0) desc_.lda = desc_.m;
  if (desc_.ldb == 0) desc_.ldb = desc_.k;
  if (desc_.ldc == 0) desc_.ldc = desc_.m;
  const bool f32_all = desc_.a == DType::F32 && desc_.b == DType::F32 &&
                       (desc_.c == DType::F32 || desc_.c == DType::BF16);
  const bool bf16_in = desc_.a == DType::BF16 && desc_.b == DType::BF16 &&
                       (desc_.c == DType::F32 || desc_.c == DType::BF16);
  PLT_CHECK(f32_all || bf16_in, "brgemm: unsupported dtype combination");
  if (f32_all) {
    PLT_CHECK(desc_.a_layout == ALayout::kFlat,
              "brgemm: VNNI layout is a low-precision feature");
    f32_micro_ = pick_f32_micro();
  } else {
    bf16_micro_ = desc_.a_layout == ALayout::kVnni2
                      ? pick_bf16_vnni_micro()
                      : detail::gemm_bf16_flat_ref;
  }
  if (desc_.c == DType::BF16) {
    to_bf16_ = detail::f32_to_bf16_ref;
    from_bf16_ = detail::bf16_to_f32_ref;
#if defined(PLT_KERNELS_AVX512)
    if (static_cast<int>(effective_isa()) >=
        static_cast<int>(IsaLevel::kAVX512)) {
      to_bf16_ = detail::f32_to_bf16_avx512;
      from_bf16_ = detail::bf16_to_f32_avx512;
    }
#endif
  }
}

BrgemmTPP::BrgemmTPP(std::int64_t m, std::int64_t n, std::int64_t k,
                     std::int64_t stride_a, std::int64_t stride_b, float beta,
                     DType a, DType b, DType c, ALayout a_layout)
    : BrgemmTPP(BrgemmDesc{m, n, k, 0, 0, 0, a, b, c, beta,
                           BrgemmVariant::kStride, a_layout, stride_a,
                           stride_b}) {}

template <typename NextA, typename NextB>
void BrgemmTPP::run_generic(NextA&& next_a, NextB&& next_b, void* c,
                            std::int64_t brcount) const {
  detail::MicroArgs args{desc_.m, desc_.n, desc_.k,
                         desc_.lda, desc_.ldb, desc_.ldc};
  const bool c_is_bf16 = desc_.c == DType::BF16;

  if (brcount <= 0) {
    if (desc_.beta == 0.0f) {
      // libxsmm semantics: beta=0 with an empty batch still zeroes C.
      if (c_is_bf16) {
        bf16* cp = static_cast<bf16*>(c);
        for (std::int64_t j = 0; j < desc_.n; ++j)
          std::memset(static_cast<void*>(cp + j * desc_.ldc), 0,
                      sizeof(bf16) * desc_.m);
      } else {
        float* cp = static_cast<float*>(c);
        for (std::int64_t j = 0; j < desc_.n; ++j)
          std::memset(cp + j * desc_.ldc, 0, sizeof(float) * desc_.m);
      }
    }
    return;
  }

  float* cacc = static_cast<float*>(c);
  bf16* cp = static_cast<bf16*>(c);
  if (c_is_bf16) {
    cacc = scratch_tile(static_cast<std::size_t>(desc_.m) * desc_.n);
    args.ldc = desc_.m;
    if (desc_.beta == 1.0f) {
      for (std::int64_t j = 0; j < desc_.n; ++j)
        from_bf16_(cp + j * desc_.ldc, cacc + j * desc_.m, desc_.m);
    }
  }

  // The first term overwrites when beta==0 (for bf16 C the scratch tile is
  // only pre-seeded when beta==1, so the same rule applies to it).
  const bool acc = desc_.beta == 1.0f;
  if (f32_micro_ != nullptr) {
    reduce_batch<float>(f32_micro_, args, next_a, next_b, brcount, cacc,
                        acc);
  } else {
    reduce_batch<bf16>(bf16_micro_, args, next_a, next_b, brcount, cacc,
                       acc);
  }

  if (c_is_bf16) {
    for (std::int64_t j = 0; j < desc_.n; ++j)
      to_bf16_(cacc + j * desc_.m, cp + j * desc_.ldc, desc_.m);
  }
}

void BrgemmTPP::operator()(const void* a, const void* b, void* c,
                           std::int64_t brcount) const {
  PLT_DCHECK(desc_.variant == BrgemmVariant::kStride,
             "brgemm: operator() is the stride variant");
  const std::size_t esz_a = dtype_size(desc_.a);
  const std::size_t esz_b = dtype_size(desc_.b);
  const char* ap = static_cast<const char*>(a);
  const char* bp = static_cast<const char*>(b);
  run_generic(
      [&](std::int64_t i) -> const void* {
        return ap + static_cast<std::size_t>(i) * desc_.stride_a * esz_a;
      },
      [&](std::int64_t i) -> const void* {
        return bp + static_cast<std::size_t>(i) * desc_.stride_b * esz_b;
      },
      c, brcount);
}

void BrgemmTPP::run_address(const void* const* a, const void* const* b,
                            void* c, std::int64_t brcount) const {
  run_generic([&](std::int64_t i) { return a[i]; },
              [&](std::int64_t i) { return b[i]; }, c, brcount);
}

void BrgemmTPP::run_offset(const void* a, const void* b, void* c,
                           const std::int64_t* offs_a,
                           const std::int64_t* offs_b,
                           std::int64_t brcount) const {
  const std::size_t esz_a = dtype_size(desc_.a);
  const std::size_t esz_b = dtype_size(desc_.b);
  const char* ap = static_cast<const char*>(a);
  const char* bp = static_cast<const char*>(b);
  run_generic(
      [&](std::int64_t i) -> const void* {
        return ap + static_cast<std::size_t>(offs_a[i]) * esz_a;
      },
      [&](std::int64_t i) -> const void* {
        return bp + static_cast<std::size_t>(offs_b[i]) * esz_b;
      },
      c, brcount);
}

GemmTPP::GemmTPP(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
                 DType a, DType b, DType c, ALayout a_layout, std::int64_t lda,
                 std::int64_t ldb, std::int64_t ldc)
    : impl_(BrgemmDesc{m, n, k, lda, ldb, ldc, a, b, c, beta,
                       BrgemmVariant::kStride, a_layout, 0, 0}) {}

}  // namespace plt::tpp
