#include "kernels/mlp_kernel.hpp"

#include <cstring>

#include "common/check.hpp"

namespace plt::kernels {

MlpKernel::MlpKernel(MlpConfig cfg) : cfg_(cfg) {
  PLT_CHECK(cfg_.sizes.size() >= 2, "mlp: need at least one layer");
  PLT_CHECK(cfg_.N > 0 && cfg_.N % cfg_.bn == 0, "mlp: bn must divide N");
  for (std::size_t l = 0; l + 1 < cfg_.sizes.size(); ++l) {
    const std::int64_t K = cfg_.sizes[l];
    const std::int64_t M = cfg_.sizes[l + 1];
    PLT_CHECK(K % cfg_.bk == 0 && M % cfg_.bm == 0,
              "mlp: bk|bm must divide layer widths");
    // Feature width of layer l+1 must also be divisible by bk, because its
    // activation becomes the next layer's K dimension.
    GemmConfig gc;
    gc.M = M;
    gc.N = cfg_.N;
    gc.K = K;
    gc.bm = cfg_.bm;
    gc.bn = cfg_.bn;
    gc.bk = cfg_.bk;
    gc.dtype = cfg_.dtype;
    gc.loop_spec = cfg_.loop_spec;
    layers_.emplace_back(gc);
    bias_tpps_.emplace_back(tpp::BinaryDesc{
        tpp::BinaryKind::kAdd, cfg_.bm, cfg_.bn, 0, 0, 0, DType::F32,
        cfg_.dtype, cfg_.dtype, tpp::Broadcast::kCol});
    act_tpps_.emplace_back(
        cfg_.act == Activation::kGelu ? tpp::UnaryKind::kGelu
                                      : tpp::UnaryKind::kRelu,
        cfg_.bm, cfg_.bn, cfg_.dtype, cfg_.dtype);
  }
  // Staging: a C-layout buffer per intermediate activation, plus a B-layout
  // one when the two layouts differ.
  const std::size_t esz = dtype_size(cfg_.dtype);
  for (std::size_t l = 0; l + 2 < cfg_.sizes.size(); ++l) {
    const std::size_t elems =
        static_cast<std::size_t>(cfg_.sizes[l + 1]) * static_cast<std::size_t>(cfg_.N);
    c_stage_.emplace_back(elems * esz);
    if (cfg_.bm != cfg_.bk) b_stage_.emplace_back(elems * esz);
  }
}

double MlpKernel::flops() const {
  double f = 0.0;
  for (const GemmKernel& g : layers_) f += g.flops();
  return f;
}

void MlpKernel::c_to_b(std::int64_t l, const void* c_act, void* b_act) const {
  // C[Nb][Mb][bn][bm] (features = sizes[l+1]) -> B[Nb][K'b][bn][bk].
  const std::int64_t F = cfg_.sizes[static_cast<std::size_t>(l) + 1];
  const std::int64_t N = cfg_.N;
  const std::int64_t bm = cfg_.bm, bn = cfg_.bn, bk = cfg_.bk;
  const std::int64_t Mb = F / bm, Kb = F / bk, Nb = N / bn;
  const std::size_t esz = dtype_size(cfg_.dtype);
  const char* src = static_cast<const char*>(c_act);
  char* dst = static_cast<char*>(b_act);
  for (std::int64_t in = 0; in < Nb; ++in)
    for (std::int64_t f = 0; f < F; ++f)
      for (std::int64_t nn = 0; nn < bn; ++nn) {
        const std::size_t c_idx = static_cast<std::size_t>(
            (((in * Mb + f / bm) * bn + nn) * bm) + f % bm);
        const std::size_t b_idx = static_cast<std::size_t>(
            (((in * Kb + f / bk) * bn + nn) * bk) + f % bk);
        std::memcpy(dst + b_idx * esz, src + c_idx * esz, esz);
      }
}

void MlpKernel::run(const void* input, const std::vector<const void*>& weights,
                    const std::vector<const float*>& biases,
                    void* output) const {
  const std::int64_t L = num_layers();
  PLT_CHECK(static_cast<std::int64_t>(weights.size()) == L,
            "mlp: one weight tensor per layer");
  PLT_CHECK(!cfg_.with_bias ||
                static_cast<std::int64_t>(biases.size()) == L,
            "mlp: one bias per layer when with_bias");

  const void* cur_b = input;
  for (std::int64_t l = 0; l < L; ++l) {
    const std::size_t li = static_cast<std::size_t>(l);
    void* c_out = l == L - 1 ? output : static_cast<void*>(c_stage_[li].data());
    const GemmKernel& gemm = layers_[li];
    const tpp::BinaryTPP& bias_tpp = bias_tpps_[li];
    const tpp::UnaryTPP& act_tpp = act_tpps_[li];
    const float* bias = cfg_.with_bias ? biases[li] : nullptr;
    const std::int64_t bm = cfg_.bm;
    const bool apply_act = cfg_.act != Activation::kNone;

    gemm.run_with_epilogue(
        weights[li], cur_b, c_out,
        [&](std::int64_t im, std::int64_t /*in*/, void* c_block) {
          if (bias != nullptr) bias_tpp(bias + im * bm, c_block, c_block);
          if (apply_act) act_tpp(c_block, c_block);
        });

    if (l < L - 1) {
      if (b_stage_.empty()) {
        cur_b = c_out;
      } else {
        c_to_b(l, c_out, b_stage_[li].data());
        cur_b = b_stage_[li].data();
      }
    }
  }
}

}  // namespace plt::kernels
