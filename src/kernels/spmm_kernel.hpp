// Block-SpMM kernel (Section III-C, Listing 5): C = A_sparse x B_dense with
// A in BCSC format. The PARLOOPER loops mirror the dense GEMM's; the body is
// the bcsc_spmm_tpp, which batch-reduces over the surviving blocks of one
// block-row. B and C are plain dense column-major matrices here (the paper
// packs them in VNNI-friendly layouts; our VNNI packing lives inside the A
// blocks, which is what the low-precision microkernels consume).
#pragma once

#include <memory>
#include <string>

#include "parlooper/threaded_loop.hpp"
#include "tpp/spmm.hpp"

namespace plt::kernels {

struct SpmmConfig {
  std::int64_t M = 0, N = 0, K = 0;
  std::int64_t bm = 8, bk = 8;   // the block-sparsity structure of A
  std::int64_t bn = 32;          // dense N tiling
  DType dtype = DType::F32;      // A/B precision (C accumulates fp32)
  std::string loop_spec = "AB";  // parallel over (m-block, n-tile)

  std::int64_t Mb() const { return M / bm; }
  std::int64_t Nb() const { return N / bn; }
};

class SpmmKernel {
 public:
  explicit SpmmKernel(SpmmConfig cfg);

  // b: dense K x N col-major (ldb = K), same precision as a's blocks;
  // c: dense M x N col-major fp32 (ldc = M), overwritten.
  void run(const tpp::BcscMatrix& a, const void* b, float* c) const;

  const SpmmConfig& config() const { return cfg_; }

  // Effective flops of one run for the given sparse matrix.
  double flops(const tpp::BcscMatrix& a) const;
  // Dense-equivalent flops (what a dense GEMM of the same shape does).
  double dense_flops() const {
    return 2.0 * static_cast<double>(cfg_.M) * cfg_.N * cfg_.K;
  }

 private:
  SpmmConfig cfg_;
  tpp::SpmmTPP spmm_tpp_;
  std::shared_ptr<const parlooper::LoopNest> loop_;
};

}  // namespace plt::kernels
