#include "dl/fc_layer.hpp"

#include <cstring>

#include "common/check.hpp"
#include "tpp/transforms.hpp"

namespace plt::dl {

namespace {

// Packs a row-major (out x in) weight matrix into the blocked A layout
// A[Mb][Kb][bk][bm] (bm fastest), VNNI2-packing bf16 blocks.
void pack_weight_blocked(const float* w_rowmajor, std::int64_t M,
                         std::int64_t K, std::int64_t bm, std::int64_t bk,
                         DType dtype, std::uint8_t* out) {
  const std::int64_t Mb = M / bm, Kb = K / bk;
  const std::int64_t blk_elems =
      dtype == DType::BF16 ? tpp::vnni2_elems(bm, bk) : bm * bk;
  std::vector<bf16> tile(static_cast<std::size_t>(bm * bk));
  for (std::int64_t im = 0; im < Mb; ++im)
    for (std::int64_t ik = 0; ik < Kb; ++ik) {
      if (dtype == DType::F32) {
        float* dst = reinterpret_cast<float*>(out) + (im * Kb + ik) * blk_elems;
        for (std::int64_t kk = 0; kk < bk; ++kk)
          for (std::int64_t mm = 0; mm < bm; ++mm)
            dst[mm + kk * bm] =
                w_rowmajor[(im * bm + mm) * K + (ik * bk + kk)];
      } else {
        for (std::int64_t kk = 0; kk < bk; ++kk)
          for (std::int64_t mm = 0; mm < bm; ++mm)
            tile[static_cast<std::size_t>(mm + kk * bm)] = bf16::from_f32(
                w_rowmajor[(im * bm + mm) * K + (ik * bk + kk)]);
        tpp::vnni2_pack(tile.data(),
                        reinterpret_cast<bf16*>(out) + (im * Kb + ik) * blk_elems,
                        bm, bk, bm);
      }
    }
}

}  // namespace

FcLayer::FcLayer(FcConfig cfg, Xoshiro256& rng)
    : cfg_(cfg),
      bias_tpp_(tpp::BinaryDesc{tpp::BinaryKind::kAdd, cfg.bm, cfg.bn, 0,
                                cfg.out_features, cfg.out_features, DType::F32,
                                DType::F32, DType::F32, tpp::Broadcast::kCol}),
      act_tpp_(tpp::UnaryDesc{cfg.act == FcActivation::kGelu
                                  ? tpp::UnaryKind::kGelu
                                  : tpp::UnaryKind::kRelu,
                              cfg.bm, cfg.bn, cfg.out_features,
                              cfg.out_features, DType::F32, DType::F32, 1.0f}) {
  PLT_CHECK(cfg_.in_features % cfg_.bk == 0 &&
                cfg_.out_features % cfg_.bm == 0 &&
                cfg_.out_features % cfg_.bk == 0 &&
                cfg_.in_features % cfg_.bm == 0,
            "fc: block sizes must divide features (both directions, for the "
            "dgrad transpose)");
  weight_.reshape({cfg_.out_features, cfg_.in_features});
  bias_.reshape({cfg_.out_features});
  dweight_.reshape({cfg_.out_features, cfg_.in_features});
  dbias_.reshape({cfg_.out_features});
  preact_.reshape({cfg_.tokens, cfg_.out_features});
  weight_.randn_uniform(rng, -0.05f, 0.05f);
  bias_.randn_uniform(rng, -0.01f, 0.01f);

  const std::int64_t Mb = cfg_.out_features / cfg_.bm;
  const std::int64_t Kb = cfg_.in_features / cfg_.bk;
  const std::int64_t blk =
      cfg_.dtype == DType::BF16 ? tpp::vnni2_elems(cfg_.bm, cfg_.bk)
                                : cfg_.bm * cfg_.bk;
  w_blocked_.resize(static_cast<std::size_t>(Mb * Kb * blk) *
                    dtype_size(cfg_.dtype));
  // dgrad operates on fp32 master weights: A = W^T blocked with (bm', bk')
  // = (bk, bm) so the same divisibility holds.
  const std::int64_t Ib = cfg_.in_features / cfg_.bk;
  const std::int64_t Ob = cfg_.out_features / cfg_.bm;
  wt_blocked_.resize(static_cast<std::size_t>(Ib * Ob * cfg_.bk * cfg_.bm) *
                     sizeof(float));
  if (cfg_.dtype == DType::BF16) {
    in_stage_.resize(static_cast<std::size_t>(cfg_.tokens * cfg_.in_features) *
                     sizeof(bf16));
  }
  repack();

  // The dgrad GEMM needs bn | tokens; inference-only layers (e.g. the LLM
  // decode path with arbitrary token counts) simply never build it.
  if (cfg_.tokens % cfg_.bn == 0) {
    kernels::GemmConfig dg;
    dg.M = cfg_.in_features;
    dg.N = cfg_.tokens;
    dg.K = cfg_.out_features;
    dg.bm = cfg_.bk;   // in-features blocked by bk
    dg.bn = cfg_.bn;
    dg.bk = cfg_.bm;   // out-features blocked by bm
    dg.dtype = DType::F32;
    dg.loop_spec = cfg_.loop_spec;
    dgrad_gemm_ = std::make_unique<kernels::GemmKernel>(dg);
  }
}

void FcLayer::repack() {
  pack_weight_blocked(weight_.data(), cfg_.out_features, cfg_.in_features,
                      cfg_.bm, cfg_.bk, cfg_.dtype, w_blocked_.data());
  // W^T (in x out) in fp32 blocks (bm' = bk, bk' = bm).
  std::vector<float> wt(static_cast<std::size_t>(cfg_.in_features *
                                                 cfg_.out_features));
  for (std::int64_t o = 0; o < cfg_.out_features; ++o)
    for (std::int64_t i = 0; i < cfg_.in_features; ++i)
      wt[static_cast<std::size_t>(i * cfg_.out_features + o)] =
          weight_[static_cast<std::size_t>(o * cfg_.in_features + i)];
  pack_weight_blocked(wt.data(), cfg_.in_features, cfg_.out_features, cfg_.bk,
                      cfg_.bm, DType::F32, wt_blocked_.data());
}

void FcLayer::forward(const float* input, float* output) const {
  forward_tokens(input, cfg_.tokens, output);
}

namespace {

// Footprints of one (ik, im, is) forward invocation: the bm x bn output tile
// (ld = out_features) is read-modify-written across the K reduction, the
// pre-activation stash is written on the last K step (over-approximated as
// every step, per the AccessMap contract), weights and the input panel are
// read-only.
parlooper::AccessMap fc_access_map(const FcConfig& cfg, std::int64_t bn) {
  const std::int64_t Kb = cfg.in_features / cfg.bk;
  const std::int64_t a_blk = cfg.dtype == DType::BF16
                                 ? tpp::vnni2_elems(cfg.bm, cfg.bk)
                                 : cfg.bm * cfg.bk;
  parlooper::AccessMap access;
  access
      .add_write("out", {0, cfg.bm, bn * cfg.out_features}, cfg.bm, bn,
                 cfg.out_features)
      .add_read("out", {0, cfg.bm, bn * cfg.out_features}, cfg.bm, bn,
                cfg.out_features)
      .add_write("preact", {0, cfg.bm, bn * cfg.out_features}, cfg.bm, bn,
                 cfg.out_features)
      .add_read("weights", {a_blk, Kb * a_blk, 0}, a_blk)
      .add_read("in", {cfg.bk, 0, bn * cfg.in_features}, cfg.bk, bn,
                cfg.in_features);
  return access;
}

}  // namespace

// The compiled forward pipeline for one token count, built once per S and
// memoized so the serving/decode hot path touches no cache-key machinery.
struct FcLayer::TokenPlan {
  std::int64_t bn;
  tpp::BrgemmTPP brgemm;
  tpp::UnaryTPP zero;
  tpp::BinaryTPP bias;
  tpp::UnaryTPP act;
  parlooper::LoopNest nest;

  TokenPlan(const FcConfig& cfg, std::int64_t S, std::int64_t bn_in)
      : bn(bn_in),
        brgemm(tpp::BrgemmDesc{
            cfg.bm, bn, cfg.bk,
            /*lda=*/cfg.bm, /*ldb=*/cfg.in_features, /*ldc=*/cfg.out_features,
            cfg.dtype, cfg.dtype, DType::F32, /*beta=*/1.0f,
            tpp::BrgemmVariant::kStride,
            cfg.dtype == DType::BF16 ? tpp::ALayout::kVnni2
                                     : tpp::ALayout::kFlat,
            /*stride_a=*/cfg.dtype == DType::BF16
                ? tpp::vnni2_elems(cfg.bm, cfg.bk)
                : cfg.bm * cfg.bk,
            /*stride_b=*/cfg.bk}),
        zero(tpp::UnaryDesc{tpp::UnaryKind::kZero, cfg.bm, bn, 0,
                            cfg.out_features, DType::F32, DType::F32, 1.0f}),
        bias(tpp::BinaryDesc{tpp::BinaryKind::kAdd, cfg.bm, bn, 0,
                             cfg.out_features, cfg.out_features, DType::F32,
                             DType::F32, DType::F32, tpp::Broadcast::kCol}),
        act(tpp::UnaryDesc{cfg.act == FcActivation::kGelu
                               ? tpp::UnaryKind::kGelu
                               : tpp::UnaryKind::kRelu,
                           cfg.bm, bn, cfg.out_features, cfg.out_features,
                           DType::F32, DType::F32, 1.0f}),
        nest({parlooper::LoopSpecs{0, cfg.in_features / cfg.bk, 1},
              parlooper::LoopSpecs{0, cfg.out_features / cfg.bm, 1},
              parlooper::LoopSpecs{0, S / bn, 1}},
             cfg.loop_spec, fc_access_map(cfg, bn_in)) {}
};

FcLayer::~FcLayer() = default;

FcLayer::TokenPlan* FcLayer::find_token_plan(std::int64_t S) const {
  for (auto& entry : token_plans_) {
    if (entry.first == S) return entry.second.get();
  }
  return nullptr;
}

FcLayer::TokenPlan& FcLayer::token_plan(std::int64_t S) const {
  PLT_CHECK(S <= cfg_.tokens, "fc: token count exceeds configured maximum");
  if (TokenPlan* tp = find_token_plan(S)) return *tp;
  const std::int64_t bn = S % cfg_.bn == 0 ? cfg_.bn : 1;
  token_plans_.emplace_back(S, std::make_unique<TokenPlan>(cfg_, S, bn));
  return *token_plans_.back().second;
}

// One forward call's tile body: computes the (ik, im, is) output tile. A
// member wraps it in the nest's BodyFn by reference, which keeps that
// std::function in its small-object buffer: no allocation per member.
struct FcLayer::TileCall {
  const FcLayer& fc;
  const TokenPlan& tp;
  const char* b_panel;
  float* output;

  void operator()(const std::int64_t* ind) const {
    const FcConfig& cfg = fc.cfg_;
    const std::int64_t in_f = cfg.in_features, out_f = cfg.out_features;
    const std::int64_t Kb = in_f / cfg.bk, bn = tp.bn;
    const std::size_t esz = dtype_size(cfg.dtype);
    const std::int64_t a_blk = cfg.dtype == DType::BF16
                                   ? tpp::vnni2_elems(cfg.bm, cfg.bk)
                                   : cfg.bm * cfg.bk;
    const std::int64_t ik = ind[0], im = ind[1], is = ind[2];
    // C tile (bm x bn) inside the column-major out x S output.
    float* c_tile = output + im * cfg.bm + is * bn * out_f;
    if (ik == 0) tp.zero(nullptr, c_tile);
    tp.brgemm(fc.w_blocked_.data() +
                  static_cast<std::size_t>((im * Kb + ik) * a_blk) * esz,
              b_panel + static_cast<std::size_t>(ik * cfg.bk + is * bn * in_f) * esz,
              c_tile, 1);
    if (ik == Kb - 1) {
      if (cfg.with_bias) tp.bias(fc.bias_.data() + im * cfg.bm, c_tile, c_tile);
      if (cfg.act != FcActivation::kNone) {
        // Save the pre-activation for the backward pass, then activate.
        float* p_tile = fc.preact_.data() + im * cfg.bm + is * bn * out_f;
        for (std::int64_t j = 0; j < bn; ++j)
          std::memcpy(p_tile + j * out_f, c_tile + j * out_f,
                      sizeof(float) * static_cast<std::size_t>(cfg.bm));
        tp.act(c_tile, c_tile);
      }
    }
  }
};

void FcLayer::forward_tokens(const float* input, std::int64_t S,
                             float* output) const {
  token_plan(S).nest.standalone([&](parlooper::TeamMember& m) {
    forward_member(m, input, S, output);
  });
}

void FcLayer::forward_member(parlooper::TeamMember& m, const float* input,
                             std::int64_t S, float* output) const {
  const TokenPlan* tp = find_token_plan(S);
  if (!m.check(tp != nullptr, "fc: forward_member needs prepare_tokens(S) first"))
    return;
  // The B operand: a row-major [S][in] activation is a column-major
  // in x S matrix with ld = in.
  const void* b_panel = input;
  if (cfg_.dtype == DType::BF16) {
    bf16* staged = reinterpret_cast<bf16*>(in_stage_.data());
    m.split(S * cfg_.in_features, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) staged[i] = bf16::from_f32(input[i]);
    });
    b_panel = staged;
  }
  const TileCall tile{*this, *tp, static_cast<const char*>(b_panel), output};
  tp->nest.collective(m, [&tile](const std::int64_t* ind) { tile(ind); });
}

void FcLayer::zero_grad() {
  dweight_.zero();
  dbias_.zero();
}

void FcLayer::backward(const float* input, const float* grad_out,
                       float* grad_in) {
  const std::int64_t S = cfg_.tokens, in_f = cfg_.in_features,
                     out_f = cfg_.out_features;

  // Through the activation: g = act'(preact) * grad_out.
  std::vector<float> g(static_cast<std::size_t>(S * out_f));
  if (cfg_.act == FcActivation::kNone) {
    std::memcpy(g.data(), grad_out, g.size() * sizeof(float));
  } else {
    tpp::UnaryTPP bwd(cfg_.act == FcActivation::kGelu
                          ? tpp::UnaryKind::kGeluBwd
                          : tpp::UnaryKind::kReluBwd,
                      out_f, S);  // col-major out x S, ld = out
    bwd(grad_out, g.data(), preact_.data());
  }

  // dbias[o] = sum_s g(o, s): column sums of the out x S col-major view.
  if (cfg_.with_bias) {
    std::vector<float> db(static_cast<std::size_t>(out_f));
    tpp::UnaryTPP reduce(tpp::UnaryKind::kReduceSumCols, out_f, S);
    reduce(g.data(), db.data());
    for (std::int64_t o = 0; o < out_f; ++o)
      dbias_[static_cast<std::size_t>(o)] += db[static_cast<std::size_t>(o)];
  }

  // dI (in x S col-major) = W^T (in x out) x g (out x S).
  if (grad_in != nullptr) {
    PLT_CHECK(dgrad_gemm_ != nullptr,
              "fc: backward requires bn to divide the configured tokens");
    // dgrad_gemm_ consumes blocked B: pack g into B[Nb][Kb'][bn][bk'] with
    // K' = out_f, bk' = bm. The flat col-major source is g (ld = out_f).
    const std::int64_t Kb2 = out_f / cfg_.bm, Nb = S / cfg_.bn;
    std::vector<float> gb(static_cast<std::size_t>(S * out_f));
    for (std::int64_t in = 0; in < Nb; ++in)
      for (std::int64_t ik = 0; ik < Kb2; ++ik)
        for (std::int64_t nn = 0; nn < cfg_.bn; ++nn)
          for (std::int64_t kk = 0; kk < cfg_.bm; ++kk)
            gb[static_cast<std::size_t>(
                (((in * Kb2 + ik) * cfg_.bn + nn) * cfg_.bm) + kk)] =
                g[static_cast<std::size_t>((ik * cfg_.bm + kk) +
                                           (in * cfg_.bn + nn) * out_f)];
    // C blocked [Nb][Mb'][bn][bm'] -> unblock into grad_in (in x S cm).
    std::vector<float> cb(static_cast<std::size_t>(S * in_f));
    dgrad_gemm_->run(wt_blocked_.data(), gb.data(), cb.data());
    dgrad_gemm_->unpack_c(cb.data(), grad_in);
  }

  // dW (col-major out x in) = g (out x S) x input^T; input^T is the
  // row-major [S][in] activation transposed to col-major S x in.
  std::vector<float> xt(static_cast<std::size_t>(S * in_f));
  tpp::transpose_2d(input, xt.data(), in_f, S, in_f, S);
  std::vector<float> dw(static_cast<std::size_t>(out_f * in_f));
  tpp::GemmTPP wgrad(out_f, in_f, S, 0.0f);
  wgrad(g.data(), xt.data(), dw.data());
  // Accumulate into the row-major master gradient.
  for (std::int64_t o = 0; o < out_f; ++o)
    for (std::int64_t i = 0; i < in_f; ++i)
      dweight_[static_cast<std::size_t>(o * in_f + i)] +=
          dw[static_cast<std::size_t>(o + i * out_f)];
}

void FcLayer::sgd_step(float lr) {
  for (std::int64_t i = 0; i < weight_.numel(); ++i)
    weight_[static_cast<std::size_t>(i)] -=
        lr * dweight_[static_cast<std::size_t>(i)];
  for (std::int64_t i = 0; i < bias_.numel(); ++i)
    bias_[static_cast<std::size_t>(i)] -= lr * dbias_[static_cast<std::size_t>(i)];
  repack();
}

}  // namespace plt::dl
