// Direct convolution kernel (Section III-B, Listing 4): the 7 logical loops
// (minibatch, input-channel blocks, output-channel blocks, output rows,
// output columns, filter rows, filter columns) are declared with PARLOOPER
// and the compute body is an offset-based BRGEMM that folds the
// (channel-block, R, S) reduction into one batch-reduce call.
//
// Layouts (paper Listing 4, channels blocked by bc / bk):
//   I[N][Cb][Hp][Wp][bc]        input, physically padded (Hp = H + 2*pad)
//   W[Kb][Cb][R][S][bc][bk]     weights (bk fastest; bf16 blocks VNNI2)
//   O[N][Kb][P][Q][bk]          output
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "parlooper/threaded_loop.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/unary.hpp"

namespace plt::kernels {

struct ConvConfig {
  std::int64_t N = 1;            // minibatch
  std::int64_t C = 0, K = 0;     // input / output feature maps
  std::int64_t H = 0, W = 0;     // input spatial (unpadded)
  std::int64_t R = 3, S = 3;     // filter spatial
  std::int64_t stride_h = 1, stride_w = 1;
  std::int64_t pad_h = 0, pad_w = 0;
  std::int64_t bc = 32, bk = 32; // channel block sizes
  std::int64_t w_step = 0;       // output pixels per BRGEMM call (0 => Q)
  std::int64_t c_step = 0;       // channel blocks folded per call (0 => Cb)
  DType dtype = DType::F32;
  // Default: parallel over (minibatch x output-channel block x output row),
  // everything else sequential inside — safe for any schedule, since each
  // output row block has one owner for the whole channel-block reduction.
  // Including the rows keeps every thread busy at minibatch 1.
  std::string loop_spec = "ACDebfg";

  std::int64_t P() const { return (H + 2 * pad_h - R) / stride_h + 1; }
  std::int64_t Q() const { return (W + 2 * pad_w - S) / stride_w + 1; }
  std::int64_t Hp() const { return H + 2 * pad_h; }
  std::int64_t Wp() const { return W + 2 * pad_w; }
  std::int64_t Cb() const { return C / bc; }
  std::int64_t Kb() const { return K / bk; }
};

class ConvKernel {
 public:
  explicit ConvKernel(ConvConfig cfg);

  // Operands in the blocked layouts above.
  void run(const void* input, const void* weights, void* output) const;

  ConvKernel with_spec(const std::string& loop_spec) const;

  const ConvConfig& config() const { return cfg_; }
  const parlooper::LoopNest& loop() const { return *loop_; }
  double flops() const {
    return 2.0 * static_cast<double>(cfg_.N) * cfg_.K * cfg_.P() * cfg_.Q() *
           cfg_.C * cfg_.R * cfg_.S;
  }

  std::size_t input_elems() const;    // padded blocked input
  std::size_t weight_elems() const;   // blocked (vnni-aware) weights
  std::size_t output_elems() const;

  // NCHW fp32 -> padded blocked input (pad region zeroed).
  void pack_input(const float* nchw, void* blocked) const;
  // KCRS fp32 -> blocked weights.
  void pack_weights(const float* kcrs, void* blocked) const;
  // Blocked output -> NKPQ fp32.
  void unpack_output(const void* blocked, float* nkpq) const;

 private:
  ConvConfig cfg_;
  std::int64_t w_block_elems_ = 0;  // elements per [bc][bk] weight block
  tpp::UnaryTPP zero_tpp_;
  tpp::BrgemmTPP brgemm_tpp_;
  std::vector<std::int64_t> offs_a_, offs_b_;  // (c, r, s) reduction offsets
  std::shared_ptr<const parlooper::LoopNest> loop_;
};

}  // namespace plt::kernels
