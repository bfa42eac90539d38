// Multi-threaded GEMM kernel written exactly in the PARLOOPER/TPP style of
// Listing 1: blocked operand layouts, a zero_tpp + brgemm_tpp body, and a
// loop_spec_string runtime knob that selects order/blocking/parallelism with
// zero code change.
//
// Layouts (paper Section II-A):
//   A[Mb][Kb][bk][bm]  (bm fastest; bf16 blocks are VNNI2-packed)
//   B[Nb][Kb][bn][bk]  (bk fastest)
//   C[Nb][Mb][bn][bm]  (bm fastest)
#pragma once

#include <memory>
#include <string>

#include "common/aligned_buffer.hpp"
#include "parlooper/threaded_loop.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"
#include "tpp/unary.hpp"

namespace plt::kernels {

struct GemmConfig {
  std::int64_t M = 0, N = 0, K = 0;
  std::int64_t bm = 32, bn = 32, bk = 32;
  DType dtype = DType::F32;     // operand precision (C matches)
  std::int64_t k_step = 1;      // k-blocks fused per BRGEMM call
  // Default spec: parallel M/N block loops (collapse), sequential K inside —
  // safe under any schedule because one owner touches a C block for all ik.
  std::string loop_spec = "BCa";
  std::vector<std::int64_t> m_blocking;  // extra blocking sizes for 'b'
  std::vector<std::int64_t> n_blocking;  // extra blocking sizes for 'c'
  std::vector<std::int64_t> k_blocking;  // extra blocking sizes for 'a'

  std::int64_t Mb() const { return M / bm; }
  std::int64_t Nb() const { return N / bn; }
  std::int64_t Kb() const { return K / bk; }
};

class GemmKernel {
 public:
  explicit GemmKernel(GemmConfig cfg);

  // Operands in the blocked layouts above (bf16 A blocks VNNI2-packed).
  void run(const void* a, const void* b, void* c) const;

  // Same, with a fused epilogue invoked on each C block right after its K
  // reduction completes (ik == Kb - k_step) — the MLP fusion hook of
  // Section III-A ("if (ik == Kb - k_step) relu_tpp(&C[in][im][0][0])").
  using Epilogue =
      std::function<void(std::int64_t im, std::int64_t in, void* c_block)>;
  void run_with_epilogue(const void* a, const void* b, void* c,
                         const Epilogue& epilogue) const;

  // Same kernel, different spec — the "zero lines of code change" knob.
  GemmKernel with_spec(const std::string& loop_spec) const;

  const GemmConfig& config() const { return cfg_; }
  double flops() const {
    return 2.0 * static_cast<double>(cfg_.M) * cfg_.N * cfg_.K;
  }

  // Layout helpers (flat col-major <-> blocked; handles VNNI for bf16).
  std::size_t a_elems() const;
  std::size_t b_elems() const;
  std::size_t c_elems() const;
  void pack_a(const float* flat, void* blocked) const;
  void pack_b(const float* flat, void* blocked) const;
  void unpack_c(const void* blocked, float* flat) const;

 private:
  GemmConfig cfg_;
  std::int64_t a_block_elems_ = 0;  // elements per A block (vnni-aware)
  tpp::UnaryTPP zero_tpp_;
  tpp::BrgemmTPP brgemm_tpp_;
  std::shared_ptr<const parlooper::LoopNest> loop_;
};

}  // namespace plt::kernels
