// Batch-Reduce GEMM (BRGEMM) TPP — the main tensor-contraction building
// block (Section II-A):
//
//   C = beta * C + sum_{i=0}^{brcount-1} A_i x B_i
//
// with the three address-generation variants of the paper: stride-based,
// address-based and offset-based. Every variant gathers the batch's A_i/B_i
// addresses into pointer arrays (fixed-size stack chunks) and hands each
// chunk to one microkernel call, which keeps its C register blocks in
// registers across the chunk (see gemm_micro.hpp for the per-ISA blocks).
// bf16 inputs accumulate in fp32; when C is stored in bf16 a per-thread fp32
// scratch tile carries the accumulation across the whole batch, converted
// from and to bf16 once per call with vector code that rounds exactly like
// bf16::from_f32.
#pragma once

#include <cstdint>
#include <memory>

#include "tpp/gemm_micro.hpp"
#include "tpp/tpp_types.hpp"

namespace plt::tpp {

class BrgemmTPP {
 public:
  explicit BrgemmTPP(BrgemmDesc desc);

  // Convenience constructor for the stride-based variant (Listing 1 usage).
  BrgemmTPP(std::int64_t m, std::int64_t n, std::int64_t k,
            std::int64_t stride_a, std::int64_t stride_b, float beta,
            DType a = DType::F32, DType b = DType::F32, DType c = DType::F32,
            ALayout a_layout = ALayout::kFlat);

  // Stride variant: A_i = a + i*stride_a, B_i = b + i*stride_b (elements).
  void operator()(const void* a, const void* b, void* c,
                  std::int64_t brcount) const;

  // Address variant: explicit pointer arrays of length brcount.
  void run_address(const void* const* a, const void* const* b, void* c,
                   std::int64_t brcount) const;

  // Offset variant: A_i = a + offs_a[i], B_i = b + offs_b[i] (elements).
  void run_offset(const void* a, const void* b, void* c,
                  const std::int64_t* offs_a, const std::int64_t* offs_b,
                  std::int64_t brcount) const;

  const BrgemmDesc& desc() const { return desc_; }
  double flops(std::int64_t brcount) const {
    return GemmFlops::of(desc_.m, desc_.n, desc_.k) *
           static_cast<double>(brcount);
  }

 private:
  template <typename NextA, typename NextB>
  void run_generic(NextA&& next_a, NextB&& next_b, void* c,
                   std::int64_t brcount) const;

  BrgemmDesc desc_;
  detail::F32Micro f32_micro_ = nullptr;
  detail::Bf16Micro bf16_micro_ = nullptr;
  detail::ToBf16 to_bf16_ = nullptr;      // set when C is bf16
  detail::FromBf16 from_bf16_ = nullptr;
};

// Plain GEMM TPP: C = beta * C + A x B. Thin wrapper over a brcount=1
// BRGEMM, mirroring the TPP collection where GEMM is the degenerate case.
class GemmTPP {
 public:
  GemmTPP(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
          DType a = DType::F32, DType b = DType::F32, DType c = DType::F32,
          ALayout a_layout = ALayout::kFlat,
          std::int64_t lda = 0, std::int64_t ldb = 0, std::int64_t ldc = 0);

  void operator()(const void* a, const void* b, void* c) const { impl_(a, b, c, 1); }
  const BrgemmDesc& desc() const { return impl_.desc(); }

 private:
  BrgemmTPP impl_;
};

}  // namespace plt::tpp
