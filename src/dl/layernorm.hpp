// LayerNorm layer: parameters + saved statistics around the layernorm
// equation TPPs (the layernorm_tpp_eqn of Listing 6).
#pragma once

#include "dl/tensor.hpp"
#include "tpp/equations.hpp"

namespace plt::dl {

class LayerNorm {
 public:
  LayerNorm(std::int64_t tokens, std::int64_t hidden)
      : tokens_(tokens), hidden_(hidden) {
    gamma_.reshape({hidden});
    beta_.reshape({hidden});
    dgamma_.reshape({hidden});
    dbeta_.reshape({hidden});
    mean_.reshape({tokens});
    var_.reshape({tokens});
    gamma_.fill(1.0f);
    beta_.zero();
  }

  void forward(const float* in, float* out) const {
    tpp::LayerNormFwd fwd{tokens_, hidden_, 1e-5f};
    fwd(in, gamma_.data(), beta_.data(), mean_.data(), var_.data(), out);
  }

  // Rows [lo, hi) of forward(): rows are independent, so disjoint row
  // ranges may run on different threads. in/out point at row 0.
  void forward_rows(const float* in, float* out, std::int64_t lo,
                    std::int64_t hi) const {
    tpp::LayerNormFwd fwd{hi - lo, hidden_, 1e-5f};
    fwd(in + lo * hidden_, gamma_.data(), beta_.data(), mean_.data() + lo,
        var_.data() + lo, out + lo * hidden_);
  }

  // `in` must be the forward input; accumulates dgamma/dbeta.
  void backward(const float* grad_out, const float* in, float* grad_in) {
    tpp::LayerNormBwd bwd{tokens_, hidden_};
    bwd(grad_out, in, gamma_.data(), mean_.data(), var_.data(), grad_in,
        dgamma_.data(), dbeta_.data());
  }

  void zero_grad() {
    dgamma_.zero();
    dbeta_.zero();
  }
  void sgd_step(float lr) {
    for (std::int64_t i = 0; i < hidden_; ++i) {
      gamma_[static_cast<std::size_t>(i)] -= lr * dgamma_[static_cast<std::size_t>(i)];
      beta_[static_cast<std::size_t>(i)] -= lr * dbeta_[static_cast<std::size_t>(i)];
    }
  }

  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }

 private:
  std::int64_t tokens_, hidden_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  mutable Tensor mean_, var_;
};

}  // namespace plt::dl
