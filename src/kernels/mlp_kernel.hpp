// Multi-Layer Perceptron kernel (Section III-A): cascading fully-connected
// layers where each layer is the Listing-1 GEMM with a fused bias-add and
// activation TPP applied to each C block as soon as its K reduction
// completes — `if (ik == Kb - k_step) relu_tpp(&C[in][im][0][0])`.
//
// Layer l computes O_l = act(W_l x I_l + bias_l): weights are the blocked A
// operand, the previous layer's activation is the blocked B operand.
#pragma once

#include <vector>

#include "kernels/gemm_kernel.hpp"
#include "tpp/binary.hpp"

namespace plt::kernels {

enum class Activation { kNone, kRelu, kGelu };

struct MlpConfig {
  // sizes[l] is the feature width of layer input l; L = sizes.size()-1
  // layers. N is the minibatch.
  std::vector<std::int64_t> sizes;
  std::int64_t N = 0;
  std::int64_t bm = 32, bn = 32, bk = 32;
  DType dtype = DType::F32;
  Activation act = Activation::kRelu;
  bool with_bias = true;
  std::string loop_spec = "BCa";
};

class MlpKernel {
 public:
  explicit MlpKernel(MlpConfig cfg);

  // weights[l]: blocked A layout (M=sizes[l+1], K=sizes[l]); biases[l]:
  // sizes[l+1] floats (may be empty when with_bias is false). `input` is the
  // blocked B layout of layer 0; `output` receives the blocked C layout of
  // the last layer. Intermediate activations are staged internally.
  void run(const void* input, const std::vector<const void*>& weights,
           const std::vector<const float*>& biases, void* output) const;

  const MlpConfig& config() const { return cfg_; }
  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(cfg_.sizes.size()) - 1;
  }
  const GemmKernel& layer(std::int64_t l) const { return layers_[static_cast<std::size_t>(l)]; }
  double flops() const;

  // Converts a layer-l C activation (C[Nb][Mb][bn][bm], feature dim M =
  // sizes[l+1]) into the next layer's B layout (B[Nb][Kb][bn][bk], K = M).
  // run() only relayouts when bm != bk: with bm == bk the two layouts are the
  // same array, and layer l+1 reads layer l's C stage directly.
  void c_to_b(std::int64_t l, const void* c_act, void* b_act) const;

 private:
  MlpConfig cfg_;
  std::vector<GemmKernel> layers_;
  std::vector<tpp::BinaryTPP> bias_tpps_;   // per layer: bias add (col bcast)
  std::vector<tpp::UnaryTPP> act_tpps_;     // per layer activation
  // Per intermediate activation: the C stage layer l writes, and (bm != bk
  // only) the B stage layer l+1 reads.
  mutable std::vector<AlignedBuffer<std::uint8_t>> c_stage_;
  mutable std::vector<AlignedBuffer<std::uint8_t>> b_stage_;
};

}  // namespace plt::kernels
