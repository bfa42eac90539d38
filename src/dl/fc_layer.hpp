// Fully-connected layer on row-major activations, built on the PARLOOPER/TPP
// BRGEMM with blocked weights — the building block of the BERT, sparse-BERT
// and LLM pipelines (Section IV).
//
// Forward:   O[S][out] = act(I[S][in] x W^T + bias)
// Layout trick: a row-major [S][F] activation *is* a column-major F x S
// matrix, so the blocked-A BRGEMM of Listing 1 applies directly with
//   M = out features, N = S tokens, K = in features,
//   A = blocked weights W[Mb][Kb][bk][bm] (bf16 blocks VNNI2-packed),
//   B = the activation itself (k-panels strided), C = the output.
//
// Backward (fp32 master weights, the usual mixed-precision convention):
//   dI = dO x W          (uses a blocked transposed weight copy)
//   dW = dO^T-free GEMM on transposed activations, dbias = column sums
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dl/tensor.hpp"
#include "kernels/gemm_kernel.hpp"
#include "parlooper/team.hpp"
#include "tpp/binary.hpp"
#include "tpp/unary.hpp"

namespace plt::dl {

enum class FcActivation : std::uint8_t { kNone, kRelu, kGelu };

struct FcConfig {
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  std::int64_t tokens = 0;          // S: rows of the activation matrix
  std::int64_t bm = 32, bn = 32, bk = 32;
  DType dtype = DType::F32;         // contraction precision
  FcActivation act = FcActivation::kNone;
  bool with_bias = true;
  std::string loop_spec = "BCa";
};

class FcLayer {
 public:
  explicit FcLayer(FcConfig cfg, Xoshiro256& rng);
  ~FcLayer();

  // input:  S x in row-major (fp32). For bf16 the input is converted into an
  //         internal bf16 staging panel (activations flow in bf16).
  // output: S x out row-major fp32; saved for the backward pass.
  void forward(const float* input, float* output) const;

  // Same weights, different token count (used by the LLM decode path where
  // prefill processes S tokens and generation processes 1). Falls back to a
  // 1-wide token block when `tokens` is not divisible by bn.
  void forward_tokens(const float* input, std::int64_t tokens,
                      float* output) const;

  // Builds the forward pipeline for `tokens` ahead of forward_member(),
  // which only looks it up (members cannot build it concurrently).
  void prepare_tokens(std::int64_t tokens) const { token_plan(tokens); }

  // forward_tokens() as a collective call: every member of the current team
  // region calls it (parlooper/team.hpp), stages its share of a bf16 input
  // and runs its share of the nest; ends in a region barrier.
  // forward_tokens() is this call in the region the nest's standalone call
  // would open.
  void forward_member(parlooper::TeamMember& m, const float* input,
                      std::int64_t tokens, float* output) const;

  // grad_out: S x out fp32. Accumulates dweight_/dbias_ and writes grad_in
  // (S x in) unless null. `input` must be the forward input.
  void backward(const float* input, const float* grad_out, float* grad_in);

  void zero_grad();
  void sgd_step(float lr);  // updates master weights and re-packs

  const FcConfig& config() const { return cfg_; }
  double forward_flops() const {
    return 2.0 * static_cast<double>(cfg_.tokens) * cfg_.in_features *
           cfg_.out_features;
  }
  Tensor& weight() { return weight_; }        // out x in row-major (master)
  Tensor& bias() { return bias_; }
  Tensor& grad_weight() { return dweight_; }
  Tensor& grad_bias() { return dbias_; }
  const Tensor& pre_activation() const { return preact_; }

  // Re-packs the blocked operands after an external weight edit.
  void repack();

 private:
  // Pre-planned forward pipeline for one token count: the BRGEMM/bias/act
  // TPP handles (kernel-cache entries resolved once) and the compiled
  // LoopNest plan. Without this, every forward_tokens call re-derives five
  // cache keys through ostringstream — a fixed cost that dominates
  // small-token serving requests (the LLM decode path calls with S=1).
  // Not thread-safe on one instance, like the rest of the layer's mutable
  // scratch; concurrent serving uses per-lane replicas.
  struct TokenPlan;
  TokenPlan& token_plan(std::int64_t S) const;
  TokenPlan* find_token_plan(std::int64_t S) const;
  // The nest body computing one (ik, im, is) output tile.
  struct TileCall;

  FcConfig cfg_;
  Tensor weight_, bias_, dweight_, dbias_;
  mutable std::vector<std::pair<std::int64_t, std::unique_ptr<TokenPlan>>>
      token_plans_;
  mutable Tensor preact_;                // saved pre-activation (S x out)
  AlignedBuffer<std::uint8_t> w_blocked_;      // forward A operand
  AlignedBuffer<std::uint8_t> wt_blocked_;     // dgrad A operand (W^T), fp32
  mutable AlignedBuffer<std::uint8_t> in_stage_;   // bf16 input panel
  std::unique_ptr<kernels::GemmKernel> dgrad_gemm_;
  tpp::BinaryTPP bias_tpp_;
  tpp::UnaryTPP act_tpp_;
};

}  // namespace plt::dl
