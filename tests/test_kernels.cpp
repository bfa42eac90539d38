#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baselines/ref_conv.hpp"
#include "baselines/ref_gemm.hpp"
#include "common/threading.hpp"
#include "kernels/conv_kernel.hpp"
#include "kernels/gemm_kernel.hpp"
#include "kernels/mlp_kernel.hpp"
#include "kernels/spmm_kernel.hpp"
#include "test_utils.hpp"
#include "tpp/unary.hpp"

namespace plt::kernels {
namespace {

using plt::test::expect_allclose;
using plt::test::expect_bitwise;
using plt::test::naive_gemm;
using plt::test::random_vec;

// ---------- GEMM kernel: spec sweep x dtype ----------

using GemmParam = std::tuple<const char*, DType>;

class GemmKernelP : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmKernelP, MatchesNaiveUnderAnySpec) {
  const auto [spec, dtype] = GetParam();
  GemmConfig cfg;
  cfg.M = 64;
  cfg.N = 48;
  cfg.K = 32;
  cfg.bm = 16;
  cfg.bn = 8;
  cfg.bk = 8;
  cfg.dtype = dtype;
  cfg.loop_spec = spec;
  cfg.m_blocking = {2};
  cfg.n_blocking = {3};
  GemmKernel kernel(cfg);

  auto a_flat = random_vec(static_cast<std::size_t>(cfg.M * cfg.K), 1);
  auto b_flat = random_vec(static_cast<std::size_t>(cfg.K * cfg.N), 2);
  AlignedBuffer<std::uint8_t> a(kernel.a_elems() * dtype_size(dtype));
  AlignedBuffer<std::uint8_t> b(kernel.b_elems() * dtype_size(dtype));
  AlignedBuffer<std::uint8_t> c(kernel.c_elems() * dtype_size(dtype));
  kernel.pack_a(a_flat.data(), a.data());
  kernel.pack_b(b_flat.data(), b.data());
  kernel.run(a.data(), b.data(), c.data());

  std::vector<float> got(static_cast<std::size_t>(cfg.M * cfg.N));
  kernel.unpack_c(c.data(), got.data());

  std::vector<float> want(got.size(), 0.0f);
  if (dtype == DType::BF16) {
    // Round the operands the way the kernel sees them.
    for (auto& v : a_flat) v = bf16::from_f32(v).to_f32();
    for (auto& v : b_flat) v = bf16::from_f32(v).to_f32();
  }
  naive_gemm(a_flat.data(), b_flat.data(), want.data(), cfg.M, cfg.N, cfg.K,
             cfg.M, cfg.K, cfg.M, 0.0f);
  const float tol = dtype == DType::BF16 ? 0.05f : 1e-4f;
  expect_allclose(got.data(), want.data(), got.size(), tol, spec);
}

INSTANTIATE_TEST_SUITE_P(
    SpecsAndTypes, GemmKernelP,
    ::testing::Combine(::testing::Values("BCa", "aBC", "abc", "bBCca", "Cab",
                                         "BCa @ schedule(dynamic,1)"),
                       ::testing::Values(DType::F32, DType::BF16)));

TEST(GemmKernel, KStepFusesReduction) {
  GemmConfig cfg;
  cfg.M = 32;
  cfg.N = 16;
  cfg.K = 64;
  cfg.bm = 16;
  cfg.bn = 8;
  cfg.bk = 8;
  cfg.k_step = 4;  // 8 k-blocks fused 4 at a time
  GemmKernel kernel(cfg);
  auto a_flat = random_vec(static_cast<std::size_t>(cfg.M * cfg.K), 3);
  auto b_flat = random_vec(static_cast<std::size_t>(cfg.K * cfg.N), 4);
  AlignedBuffer<std::uint8_t> a(kernel.a_elems() * 4), b(kernel.b_elems() * 4),
      c(kernel.c_elems() * 4);
  kernel.pack_a(a_flat.data(), a.data());
  kernel.pack_b(b_flat.data(), b.data());
  kernel.run(a.data(), b.data(), c.data());
  std::vector<float> got(static_cast<std::size_t>(cfg.M * cfg.N));
  kernel.unpack_c(c.data(), got.data());
  std::vector<float> want(got.size(), 0.0f);
  naive_gemm(a_flat.data(), b_flat.data(), want.data(), cfg.M, cfg.N, cfg.K,
             cfg.M, cfg.K, cfg.M, 0.0f);
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "k_step");
}

TEST(GemmKernel, KStepIsBitwiseNeutralForF32) {
  // A fused k_step keeps the C block in registers across the K blocks; each
  // element still accumulates in k order, so the result is bit-identical.
  GemmConfig cfg;
  cfg.M = 96;
  cfg.N = 40;
  cfg.K = 80;
  cfg.bm = 32;
  cfg.bn = 8;
  cfg.bk = 16;
  GemmKernel one(cfg);
  cfg.k_step = cfg.Kb();
  GemmKernel fused(cfg);
  auto a_flat = random_vec(static_cast<std::size_t>(cfg.M * cfg.K), 13);
  auto b_flat = random_vec(static_cast<std::size_t>(cfg.K * cfg.N), 14);
  AlignedBuffer<std::uint8_t> a(one.a_elems() * 4), b(one.b_elems() * 4);
  AlignedBuffer<std::uint8_t> c1(one.c_elems() * 4), c2(one.c_elems() * 4);
  one.pack_a(a_flat.data(), a.data());
  one.pack_b(b_flat.data(), b.data());
  one.run(a.data(), b.data(), c1.data());
  fused.run(a.data(), b.data(), c2.data());
  expect_bitwise(reinterpret_cast<float*>(c2.data()),
                 reinterpret_cast<float*>(c1.data()), one.c_elems(), "k_step");
}

TEST(GemmKernel, WithSpecChangesScheduleNotResult) {
  GemmConfig cfg;
  cfg.M = 32;
  cfg.N = 32;
  cfg.K = 32;
  cfg.bm = cfg.bn = cfg.bk = 16;
  GemmKernel k1(cfg);
  GemmKernel k2 = k1.with_spec("Cba");
  auto a_flat = random_vec(1024, 5);
  auto b_flat = random_vec(1024, 6);
  AlignedBuffer<std::uint8_t> a(k1.a_elems() * 4), b(k1.b_elems() * 4);
  AlignedBuffer<std::uint8_t> c1(k1.c_elems() * 4), c2(k1.c_elems() * 4);
  k1.pack_a(a_flat.data(), a.data());
  k1.pack_b(b_flat.data(), b.data());
  k1.run(a.data(), b.data(), c1.data());
  k2.run(a.data(), b.data(), c2.data());
  expect_allclose(reinterpret_cast<float*>(c1.data()),
                  reinterpret_cast<float*>(c2.data()), k1.c_elems(), 1e-6f);
}

TEST(GemmKernel, RejectsNonDividingBlocks) {
  GemmConfig cfg;
  cfg.M = 30;  // not divisible by bm
  cfg.N = 32;
  cfg.K = 32;
  EXPECT_THROW(GemmKernel k(cfg), std::invalid_argument);
}

// ---------- MLP ----------

TEST(MlpKernel, CascadedLayersMatchReference) {
  MlpConfig cfg;
  cfg.sizes = {32, 64, 32};  // two layers
  cfg.N = 16;
  cfg.bm = cfg.bn = cfg.bk = 8;
  cfg.act = Activation::kRelu;
  MlpKernel mlp(cfg);

  // Weights + biases.
  std::vector<std::vector<float>> w_flat;
  std::vector<std::vector<float>> biases;
  std::vector<AlignedBuffer<std::uint8_t>> w_blocked;
  std::vector<const void*> w_ptrs;
  std::vector<const float*> b_ptrs;
  for (std::int64_t l = 0; l < mlp.num_layers(); ++l) {
    const GemmKernel& g = mlp.layer(l);
    w_flat.push_back(random_vec(
        static_cast<std::size_t>(g.config().M * g.config().K), 10 + l, -0.3f,
        0.3f));
    biases.push_back(random_vec(static_cast<std::size_t>(g.config().M),
                                20 + l, -0.2f, 0.2f));
    w_blocked.emplace_back(g.a_elems() * 4);
    g.pack_a(w_flat.back().data(), w_blocked.back().data());
  }
  for (auto& w : w_blocked) w_ptrs.push_back(w.data());
  for (auto& b : biases) b_ptrs.push_back(b.data());

  auto in_flat = random_vec(static_cast<std::size_t>(32 * cfg.N), 30);
  const GemmKernel& g0 = mlp.layer(0);
  AlignedBuffer<std::uint8_t> in_blocked(g0.b_elems() * 4);
  g0.pack_b(in_flat.data(), in_blocked.data());

  const GemmKernel& gl = mlp.layer(mlp.num_layers() - 1);
  AlignedBuffer<std::uint8_t> out_blocked(gl.c_elems() * 4);
  mlp.run(in_blocked.data(), w_ptrs, b_ptrs, out_blocked.data());
  std::vector<float> got(gl.c_elems());
  gl.unpack_c(out_blocked.data(), got.data());

  // Reference: layer by layer, col-major (features x N).
  std::vector<float> cur = in_flat;  // 32 x N col-major
  std::int64_t cur_f = 32;
  for (std::int64_t l = 0; l < mlp.num_layers(); ++l) {
    const std::int64_t out_f = mlp.layer(l).config().M;
    std::vector<float> next(static_cast<std::size_t>(out_f * cfg.N), 0.0f);
    naive_gemm(w_flat[static_cast<std::size_t>(l)].data(), cur.data(),
               next.data(), out_f, cfg.N, cur_f, out_f, cur_f, out_f, 0.0f);
    for (std::int64_t s = 0; s < cfg.N; ++s)
      for (std::int64_t o = 0; o < out_f; ++o) {
        float& v = next[static_cast<std::size_t>(o + s * out_f)];
        v += biases[static_cast<std::size_t>(l)][static_cast<std::size_t>(o)];
        v = std::max(v, 0.0f);
      }
    cur = std::move(next);
    cur_f = out_f;
  }
  expect_allclose(got.data(), cur.data(), got.size(), 1e-3f, "mlp");
}

// Runs an fp32 MLP (64 -> 64 -> 64 -> 64, N = 32) with the given blocking
// on fixed weights and returns the flat output.
std::vector<float> run_mlp(std::int64_t bm, std::int64_t bk) {
  MlpConfig cfg;
  cfg.sizes = {64, 64, 64, 64};
  cfg.N = 32;
  cfg.bm = bm;
  cfg.bk = bk;
  cfg.bn = 16;
  MlpKernel mlp(cfg);
  std::vector<AlignedBuffer<std::uint8_t>> w_blocked;
  std::vector<std::vector<float>> biases;
  std::vector<const void*> w_ptrs;
  std::vector<const float*> b_ptrs;
  for (std::int64_t l = 0; l < mlp.num_layers(); ++l) {
    const GemmKernel& g = mlp.layer(l);
    const auto w = random_vec(64 * 64, 60 + l, -0.3f, 0.3f);
    biases.push_back(random_vec(64, 70 + l, -0.2f, 0.2f));
    w_blocked.emplace_back(g.a_elems() * 4);
    g.pack_a(w.data(), w_blocked.back().data());
  }
  for (auto& w : w_blocked) w_ptrs.push_back(w.data());
  for (auto& b : biases) b_ptrs.push_back(b.data());
  const auto in_flat = random_vec(64 * 32, 80);
  AlignedBuffer<std::uint8_t> in(mlp.layer(0).b_elems() * 4);
  mlp.layer(0).pack_b(in_flat.data(), in.data());
  const GemmKernel& last = mlp.layer(mlp.num_layers() - 1);
  AlignedBuffer<std::uint8_t> out(last.c_elems() * 4);
  mlp.run(in.data(), w_ptrs, b_ptrs, out.data());
  std::vector<float> flat(last.c_elems());
  last.unpack_c(out.data(), flat.data());
  return flat;
}

TEST(MlpKernel, SharedStageMatchesRelayoutBitwise) {
  // bm == bk: layer l+1 reads layer l's C stage as its B operand directly.
  // bm != bk: the stage goes through c_to_b. Same k order, same bits.
  const std::vector<float> shared = run_mlp(32, 32);
  const std::vector<float> relayout = run_mlp(16, 32);
  expect_bitwise(shared.data(), relayout.data(), shared.size(), "mlp stage");
}

// ---------- Convolution: parameterized against the naive reference ----------

struct ConvCase {
  std::int64_t C, K, H, W, R, S, stride, pad;
};

class ConvKernelP : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernelP, MatchesNaiveConv) {
  const ConvCase cc = GetParam();
  ConvConfig cfg;
  cfg.N = 2;
  cfg.C = cc.C;
  cfg.K = cc.K;
  cfg.H = cc.H;
  cfg.W = cc.W;
  cfg.R = cc.R;
  cfg.S = cc.S;
  cfg.stride_h = cfg.stride_w = cc.stride;
  cfg.pad_h = cfg.pad_w = cc.pad;
  cfg.bc = cc.C >= 8 ? 8 : cc.C;
  cfg.bk = 8;
  ConvKernel kernel(cfg);

  auto input = random_vec(static_cast<std::size_t>(cfg.N * cfg.C * cfg.H * cfg.W), 1);
  auto weights = random_vec(static_cast<std::size_t>(cfg.K * cfg.C * cfg.R * cfg.S), 2);

  AlignedBuffer<std::uint8_t> in_b(kernel.input_elems() * 4);
  AlignedBuffer<std::uint8_t> w_b(kernel.weight_elems() * 4);
  AlignedBuffer<std::uint8_t> out_b(kernel.output_elems() * 4);
  kernel.pack_input(input.data(), in_b.data());
  kernel.pack_weights(weights.data(), w_b.data());
  kernel.run(in_b.data(), w_b.data(), out_b.data());
  std::vector<float> got(static_cast<std::size_t>(cfg.N * cfg.K * cfg.P() * cfg.Q()));
  kernel.unpack_output(out_b.data(), got.data());

  baselines::ConvShape shape{cfg.N, cfg.C, cfg.K, cfg.H, cfg.W,
                             cfg.R, cfg.S, cc.stride, cc.stride, cc.pad, cc.pad};
  std::vector<float> want(got.size());
  baselines::naive_conv(shape, input.data(), weights.data(), want.data());
  expect_allclose(got.data(), want.data(), got.size(),
                  1e-4f * static_cast<float>(cfg.C * cfg.R * cfg.S), "conv");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvKernelP,
    ::testing::Values(ConvCase{8, 16, 8, 8, 1, 1, 1, 0},
                      ConvCase{8, 8, 8, 8, 3, 3, 1, 1},
                      ConvCase{16, 8, 12, 12, 3, 3, 1, 1},
                      ConvCase{8, 16, 9, 9, 3, 3, 2, 1},
                      ConvCase{16, 16, 8, 8, 1, 1, 2, 0},
                      ConvCase{3, 8, 12, 12, 7, 7, 2, 3},   // stem-like
                      ConvCase{8, 8, 10, 10, 5, 5, 1, 2}));

TEST(ConvKernel, WStepTilingMatchesFullRow) {
  ConvConfig cfg;
  cfg.N = 1;
  cfg.C = 8;
  cfg.K = 8;
  cfg.H = cfg.W = 8;
  cfg.R = cfg.S = 3;
  cfg.pad_h = cfg.pad_w = 1;
  cfg.bc = cfg.bk = 8;
  ConvKernel full(cfg);
  cfg.w_step = 4;
  ConvKernel tiled(cfg);

  auto input = random_vec(static_cast<std::size_t>(cfg.C * cfg.H * cfg.W), 9);
  auto weights = random_vec(static_cast<std::size_t>(cfg.K * cfg.C * 9), 10);
  AlignedBuffer<std::uint8_t> in_b(full.input_elems() * 4), w_b(full.weight_elems() * 4);
  AlignedBuffer<std::uint8_t> o1(full.output_elems() * 4), o2(full.output_elems() * 4);
  full.pack_input(input.data(), in_b.data());
  full.pack_weights(weights.data(), w_b.data());
  full.run(in_b.data(), w_b.data(), o1.data());
  tiled.run(in_b.data(), w_b.data(), o2.data());
  expect_allclose(reinterpret_cast<float*>(o1.data()),
                  reinterpret_cast<float*>(o2.data()), full.output_elems(),
                  1e-5f, "w_step");
}

TEST(ConvKernel, DefaultSpecFillsTheTeamAtMinibatchOne) {
  // ResNet-50's 3x3 64->64 layer at 56x56, one image: the default collapse
  // group spans minibatch x output-channel blocks x output rows.
  ConvConfig big;
  big.N = 1;
  big.C = big.K = 64;
  big.H = big.W = 56;
  big.pad_h = big.pad_w = 1;
  const ConvKernel bench_shape(big);
  std::int64_t items = 0;
  for (const parlooper::CompiledLevel& lv : bench_shape.loop().plan().levels())
    if (lv.group_head) {
      items = lv.group_total;
      break;
    }
  EXPECT_EQ(items, big.N * big.Kb() * big.P());
  EXPECT_GE(items, max_threads());

  // Same bits as the old (minibatch x output-channel) spec, with the
  // channel-block loop split so the reduction runs across body calls.
  ConvConfig cfg;
  cfg.N = 1;
  cfg.C = cfg.K = 16;
  cfg.H = cfg.W = 10;
  cfg.pad_h = cfg.pad_w = 1;
  cfg.bc = cfg.bk = 8;
  cfg.c_step = 1;
  const ConvKernel rows(cfg);
  const ConvKernel old = rows.with_spec("ACdebfg");
  auto input = random_vec(static_cast<std::size_t>(cfg.C * cfg.H * cfg.W), 15);
  auto weights = random_vec(static_cast<std::size_t>(cfg.K * cfg.C * 9), 16);
  AlignedBuffer<std::uint8_t> in_b(rows.input_elems() * 4),
      w_b(rows.weight_elems() * 4);
  AlignedBuffer<std::uint8_t> o1(rows.output_elems() * 4),
      o2(rows.output_elems() * 4);
  rows.pack_input(input.data(), in_b.data());
  rows.pack_weights(weights.data(), w_b.data());
  rows.run(in_b.data(), w_b.data(), o1.data());
  old.run(in_b.data(), w_b.data(), o2.data());
  expect_bitwise(reinterpret_cast<float*>(o1.data()),
                 reinterpret_cast<float*>(o2.data()), rows.output_elems(),
                 "conv spec");
}

TEST(ConvKernel, Bf16TracksF32) {
  ConvConfig cfg;
  cfg.N = 1;
  cfg.C = 8;
  cfg.K = 8;
  cfg.H = cfg.W = 6;
  cfg.R = cfg.S = 3;
  cfg.pad_h = cfg.pad_w = 1;
  cfg.bc = cfg.bk = 8;
  ConvKernel f32(cfg);
  cfg.dtype = DType::BF16;
  ConvKernel b16(cfg);

  auto input = random_vec(static_cast<std::size_t>(cfg.C * cfg.H * cfg.W), 11);
  auto weights = random_vec(static_cast<std::size_t>(cfg.K * cfg.C * 9), 12);
  AlignedBuffer<std::uint8_t> i1(f32.input_elems() * 4), w1(f32.weight_elems() * 4),
      o1(f32.output_elems() * 4);
  AlignedBuffer<std::uint8_t> i2(b16.input_elems() * 2), w2(b16.weight_elems() * 2),
      o2(b16.output_elems() * 2);
  f32.pack_input(input.data(), i1.data());
  f32.pack_weights(weights.data(), w1.data());
  f32.run(i1.data(), w1.data(), o1.data());
  b16.pack_input(input.data(), i2.data());
  b16.pack_weights(weights.data(), w2.data());
  b16.run(i2.data(), w2.data(), o2.data());

  std::vector<float> g1(static_cast<std::size_t>(cfg.N * cfg.K * cfg.P() * cfg.Q()));
  std::vector<float> g2(g1.size());
  f32.unpack_output(o1.data(), g1.data());
  b16.unpack_output(o2.data(), g2.data());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(g1[i]));
    EXPECT_NEAR(g2[i], g1[i], 0.05f * scale) << i;
  }
}

// ---------- SpMM kernel ----------

TEST(SpmmKernel, MatchesDenseGemmAcrossSparsities) {
  SpmmConfig cfg;
  cfg.M = 64;
  cfg.N = 32;
  cfg.K = 64;
  cfg.bm = cfg.bk = 8;
  cfg.bn = 16;
  SpmmKernel kernel(cfg);
  Xoshiro256 rng(3);
  for (double sparsity : {0.0, 0.5, 0.9}) {
    tpp::BcscMatrix a = tpp::BcscMatrix::random(cfg.M, cfg.K, cfg.bm, cfg.bk,
                                                DType::F32, sparsity, rng);
    std::vector<float> a_dense(static_cast<std::size_t>(cfg.M * cfg.K));
    a.to_dense(a_dense.data());
    auto b = random_vec(static_cast<std::size_t>(cfg.K * cfg.N), 4);
    std::vector<float> got(static_cast<std::size_t>(cfg.M * cfg.N), -5.0f);
    kernel.run(a, b.data(), got.data());
    std::vector<float> want(got.size(), 0.0f);
    naive_gemm(a_dense.data(), b.data(), want.data(), cfg.M, cfg.N, cfg.K,
               cfg.M, cfg.K, cfg.M, 0.0f);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "spmm kernel");
  }
}

// ---------- Baselines are correct too ----------

TEST(Baselines, FixedBlockedGemmMatchesNaive) {
  const std::int64_t m = 70, n = 33, k = 65;  // deliberately unaligned
  auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  std::vector<float> want(static_cast<std::size_t>(m * n));
  std::vector<float> got(want.size());
  baselines::naive_gemm(a.data(), b.data(), want.data(), m, n, k);
  baselines::fixed_blocked_gemm(a.data(), b.data(), got.data(), m, n, k);
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "blocked");

  auto a16 = plt::test::to_bf16(a);
  auto b16 = plt::test::to_bf16(b);
  baselines::fixed_blocked_gemm_bf16(a16.data(), b16.data(), got.data(), m, n, k);
  expect_allclose(got.data(), want.data(), got.size(), 0.05f, "blocked bf16");
}

TEST(Baselines, Im2colConvMatchesNaive) {
  baselines::ConvShape s{1, 4, 6, 9, 9, 3, 3, 1, 1, 1, 1};
  auto input = random_vec(static_cast<std::size_t>(s.N * s.C * s.H * s.W), 5);
  auto weights = random_vec(static_cast<std::size_t>(s.K * s.C * s.R * s.S), 6);
  std::vector<float> want(static_cast<std::size_t>(s.N * s.K * s.P() * s.Q()));
  std::vector<float> got(want.size());
  baselines::naive_conv(s, input.data(), weights.data(), want.data());
  baselines::im2col_conv(s, input.data(), weights.data(), got.data());
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "im2col");
}

}  // namespace
}  // namespace plt::kernels
