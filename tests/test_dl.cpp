#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "dl/attention.hpp"
#include "dl/bert.hpp"
#include "dl/fc_layer.hpp"
#include "dl/llm.hpp"
#include "dl/sparse_fc.hpp"
#include "common/fault.hpp"
#include "common/status.hpp"
#include "common/threading.hpp"
#include "test_utils.hpp"

// Counts the process's operator new calls (WarmDecodeStepAllocatesNothing).
static std::atomic<long> g_allocations{0};

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace plt::dl {
namespace {

using plt::test::expect_allclose;
using plt::test::random_vec;

FcConfig small_fc(std::int64_t in_f, std::int64_t out_f, std::int64_t S,
                  FcActivation act = FcActivation::kNone,
                  DType dt = DType::F32) {
  FcConfig c;
  c.in_features = in_f;
  c.out_features = out_f;
  c.tokens = S;
  c.bm = c.bn = c.bk = 8;
  c.act = act;
  c.dtype = dt;
  return c;
}

void reference_fc(const FcLayer& fc, const float* in, float* out) {
  const auto& c = fc.config();
  const Tensor& w = const_cast<FcLayer&>(fc).weight();
  const Tensor& b = const_cast<FcLayer&>(fc).bias();
  for (std::int64_t s = 0; s < c.tokens; ++s)
    for (std::int64_t o = 0; o < c.out_features; ++o) {
      double acc = c.with_bias ? b[static_cast<std::size_t>(o)] : 0.0;
      for (std::int64_t i = 0; i < c.in_features; ++i)
        acc += static_cast<double>(w[static_cast<std::size_t>(o * c.in_features + i)]) *
               in[s * c.in_features + i];
      float v = static_cast<float>(acc);
      if (c.act == FcActivation::kRelu) v = std::max(v, 0.0f);
      if (c.act == FcActivation::kGelu) v = tpp::gelu_fwd_scalar(v);
      out[s * c.out_features + o] = v;
    }
}

TEST(FcLayer, ForwardMatchesReference) {
  Xoshiro256 rng(1);
  FcLayer fc(small_fc(24, 16, 8), rng);
  auto in = random_vec(24 * 8, 2);
  std::vector<float> got(16 * 8), want(16 * 8);
  fc.forward(in.data(), got.data());
  reference_fc(fc, in.data(), want.data());
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "fc fwd");
}

TEST(FcLayer, ActivationsApplied) {
  Xoshiro256 rng(3);
  for (FcActivation act : {FcActivation::kRelu, FcActivation::kGelu}) {
    FcLayer fc(small_fc(16, 16, 8, act), rng);
    auto in = random_vec(16 * 8, 4, -2.0f, 2.0f);
    std::vector<float> got(16 * 8), want(16 * 8);
    fc.forward(in.data(), got.data());
    reference_fc(fc, in.data(), want.data());
    expect_allclose(got.data(), want.data(), got.size(), 1e-3f, "fc act");
  }
}

TEST(FcLayer, Bf16TracksF32) {
  Xoshiro256 rng(5);
  FcLayer f32(small_fc(32, 16, 8), rng);
  Xoshiro256 rng2(5);  // same weights
  FcLayer b16(small_fc(32, 16, 8, FcActivation::kNone, DType::BF16), rng2);
  auto in = random_vec(32 * 8, 6);
  std::vector<float> y1(16 * 8), y2(16 * 8);
  f32.forward(in.data(), y1.data());
  b16.forward(in.data(), y2.data());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(y1[i]));
    EXPECT_NEAR(y2[i], y1[i], 0.05f * scale) << i;
  }
}

TEST(FcLayer, BackwardGradInMatchesFiniteDifference) {
  Xoshiro256 rng(7);
  const std::int64_t in_f = 16, out_f = 8, S = 8;
  FcConfig c = small_fc(in_f, out_f, S, FcActivation::kGelu);
  FcLayer fc(c, rng);
  auto x = random_vec(static_cast<std::size_t>(S * in_f), 8);
  auto w_loss = random_vec(static_cast<std::size_t>(S * out_f), 9);

  const auto loss = [&](const std::vector<float>& xin) {
    std::vector<float> y(static_cast<std::size_t>(S * out_f));
    fc.forward(xin.data(), y.data());
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += w_loss[i] * y[i];
    return l;
  };

  std::vector<float> y(static_cast<std::size_t>(S * out_f));
  fc.forward(x.data(), y.data());
  fc.zero_grad();
  std::vector<float> gi(static_cast<std::size_t>(S * in_f));
  fc.backward(x.data(), w_loss.data(), gi.data());

  const float h = 1e-2f;
  for (std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{37},
                        std::size_t{static_cast<std::size_t>(S * in_f) - 1}}) {
    auto xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (loss(xp) - loss(xm)) / (2.0 * h);
    EXPECT_NEAR(gi[i], fd, 2e-2 * std::max(1.0, std::fabs(fd))) << i;
  }
}

TEST(FcLayer, BackwardWeightGradMatchesFiniteDifference) {
  Xoshiro256 rng(11);
  const std::int64_t in_f = 8, out_f = 8, S = 8;
  FcLayer fc(small_fc(in_f, out_f, S), rng);
  auto x = random_vec(static_cast<std::size_t>(S * in_f), 12);
  auto w_loss = random_vec(static_cast<std::size_t>(S * out_f), 13);

  std::vector<float> y(static_cast<std::size_t>(S * out_f));
  fc.forward(x.data(), y.data());
  fc.zero_grad();
  fc.backward(x.data(), w_loss.data(), nullptr);

  const float h = 1e-2f;
  for (std::size_t wi : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    const float orig = fc.weight()[wi];
    const auto eval = [&](float wv) {
      fc.weight()[wi] = wv;
      fc.repack();
      std::vector<float> yy(y.size());
      fc.forward(x.data(), yy.data());
      double l = 0.0;
      for (std::size_t i = 0; i < yy.size(); ++i) l += w_loss[i] * yy[i];
      return l;
    };
    const double fd = (eval(orig + h) - eval(orig - h)) / (2.0 * h);
    fc.weight()[wi] = orig;
    fc.repack();
    EXPECT_NEAR(fc.grad_weight()[wi], fd, 2e-2 * std::max(1.0, std::fabs(fd)));
  }
  // dbias equals column sums of the loss weights.
  for (std::int64_t o = 0; o < out_f; ++o) {
    float want = 0.0f;
    for (std::int64_t s = 0; s < S; ++s)
      want += w_loss[static_cast<std::size_t>(s * out_f + o)];
    EXPECT_NEAR(fc.grad_bias()[static_cast<std::size_t>(o)], want, 1e-3f);
  }
}

TEST(Attention, ForwardMatchesNaive) {
  const std::int64_t S = 8, dh = 4, H = 8;  // two heads worth of width
  auto q = random_vec(static_cast<std::size_t>(S * H), 1);
  auto k = random_vec(static_cast<std::size_t>(S * H), 2);
  auto v = random_vec(static_cast<std::size_t>(S * H), 3);
  std::vector<float> out(static_cast<std::size_t>(S * H), 0.0f);
  std::vector<float> pt(static_cast<std::size_t>(S * S));
  AttentionHead head{S, dh, H};
  head.forward(q.data(), k.data(), v.data(), out.data(), pt.data());

  // Naive reference for head 0 (columns [0, dh)).
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::int64_t i = 0; i < S; ++i) {
    std::vector<float> p(static_cast<std::size_t>(S));
    float mx = -1e30f;
    for (std::int64_t j = 0; j < S; ++j) {
      float dot = 0.0f;
      for (std::int64_t d = 0; d < dh; ++d) dot += q[i * H + d] * k[j * H + d];
      p[static_cast<std::size_t>(j)] = dot * scale;
      mx = std::max(mx, dot * scale);
    }
    float sum = 0.0f;
    for (auto& x : p) {
      x = std::exp(x - mx);
      sum += x;
    }
    for (auto& x : p) x /= sum;
    for (std::int64_t d = 0; d < dh; ++d) {
      float want = 0.0f;
      for (std::int64_t j = 0; j < S; ++j)
        want += p[static_cast<std::size_t>(j)] * v[j * H + d];
      EXPECT_NEAR(out[static_cast<std::size_t>(i * H + d)], want, 1e-4f)
          << i << "," << d;
    }
  }
}

TEST(Attention, BackwardMatchesFiniteDifference) {
  const std::int64_t S = 6, dh = 4, H = 4;
  auto q = random_vec(static_cast<std::size_t>(S * H), 4);
  auto k = random_vec(static_cast<std::size_t>(S * H), 5);
  auto v = random_vec(static_cast<std::size_t>(S * H), 6);
  auto w = random_vec(static_cast<std::size_t>(S * H), 7);
  AttentionHead head{S, dh, H};

  const auto loss = [&](const std::vector<float>& qq,
                        const std::vector<float>& kk,
                        const std::vector<float>& vv) {
    std::vector<float> out(static_cast<std::size_t>(S * H));
    std::vector<float> pt(static_cast<std::size_t>(S * S));
    head.forward(qq.data(), kk.data(), vv.data(), out.data(), pt.data());
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) l += w[i] * out[i];
    return l;
  };

  std::vector<float> out(static_cast<std::size_t>(S * H));
  std::vector<float> pt(static_cast<std::size_t>(S * S));
  head.forward(q.data(), k.data(), v.data(), out.data(), pt.data());
  std::vector<float> dq(out.size()), dk(out.size()), dv(out.size());
  head.backward(q.data(), k.data(), v.data(), pt.data(), w.data(), dq.data(),
                dk.data(), dv.data());

  const float h = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{9}, std::size_t{23}}) {
    auto qp = q, qm = q;
    qp[i] += h;
    qm[i] -= h;
    EXPECT_NEAR(dq[i], (loss(qp, k, v) - loss(qm, k, v)) / (2 * h), 5e-3)
        << "dq " << i;
    auto kp = k, km = k;
    kp[i] += h;
    km[i] -= h;
    EXPECT_NEAR(dk[i], (loss(q, kp, v) - loss(q, km, v)) / (2 * h), 5e-3)
        << "dk " << i;
    auto vp = v, vm = v;
    vp[i] += h;
    vm[i] -= h;
    EXPECT_NEAR(dv[i], (loss(q, k, vp) - loss(q, k, vm)) / (2 * h), 5e-3)
        << "dv " << i;
  }
}

TEST(SparseFc, DensityZeroSparsityMatchesDense) {
  Xoshiro256 rng(21);
  const std::int64_t in_f = 32, out_f = 32, S = 8;
  Tensor w({out_f, in_f}), b({out_f});
  w.randn_uniform(rng, -0.3f, 0.3f);
  b.randn_uniform(rng, -0.1f, 0.1f);
  SparseFcConfig sc;
  sc.in_features = in_f;
  sc.out_features = out_f;
  sc.tokens = S;
  sc.block = 8;
  sc.sparsity = 0.0;
  SparseFcLayer sparse(sc, w, b);
  EXPECT_DOUBLE_EQ(sparse.density(), 1.0);

  auto in = random_vec(static_cast<std::size_t>(S * in_f), 22);
  std::vector<float> got(static_cast<std::size_t>(S * out_f));
  sparse.forward(in.data(), got.data());
  for (std::int64_t s = 0; s < S; ++s)
    for (std::int64_t o = 0; o < out_f; ++o) {
      double acc = b[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in_f; ++i)
        acc += static_cast<double>(w[static_cast<std::size_t>(o * in_f + i)]) *
               in[s * in_f + i];
      EXPECT_NEAR(got[static_cast<std::size_t>(s * out_f + o)],
                  static_cast<float>(acc), 1e-3f);
    }
}

TEST(SparseFc, SparsityReducesEffectiveFlops) {
  Xoshiro256 rng(23);
  Tensor w({64, 64}), b({64});
  w.randn_uniform(rng);
  SparseFcConfig sc;
  sc.in_features = sc.out_features = 64;
  sc.tokens = 8;
  sc.block = 8;
  sc.sparsity = 0.75;
  SparseFcLayer sparse(sc, w, b);
  EXPECT_NEAR(sparse.density(), 0.25, 1e-9);
  EXPECT_NEAR(sparse.effective_flops() / sparse.dense_flops(), 0.25, 1e-9);
}

TEST(BertEncoderLayer, ForwardProducesNormalizedOutput) {
  BertConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.intermediate = 128;
  cfg.seq_len = 16;
  cfg.bm = cfg.bn = cfg.bk = 16;
  Xoshiro256 rng(31);
  BertEncoderLayer layer(cfg, rng);
  auto x = random_vec(static_cast<std::size_t>(cfg.tokens() * cfg.hidden), 32);
  std::vector<float> y(x.size());
  layer.forward(x.data(), y.data(), rng);
  // The final layernorm leaves each token with ~zero mean, ~unit variance.
  for (std::int64_t t = 0; t < cfg.tokens(); ++t) {
    float mu = 0.0f;
    for (std::int64_t hh = 0; hh < cfg.hidden; ++hh)
      mu += y[static_cast<std::size_t>(t * cfg.hidden + hh)];
    mu /= static_cast<float>(cfg.hidden);
    EXPECT_NEAR(mu, 0.0f, 1e-3f);
  }
}

TEST(BertEncoder, TrainingStepReducesLoss) {
  BertConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 2;
  cfg.intermediate = 64;
  cfg.layers = 1;
  cfg.seq_len = 8;
  cfg.bm = cfg.bn = cfg.bk = 8;
  Xoshiro256 rng(41);
  BertEncoder model(cfg, rng);
  auto x = random_vec(static_cast<std::size_t>(cfg.tokens() * cfg.hidden), 42);
  auto target = random_vec(x.size(), 43, -0.5f, 0.5f);

  const double l0 = model.training_step(x.data(), target.data(), 0.0f, rng);
  double prev = l0;
  double last = l0;
  for (int step = 0; step < 20; ++step) {
    last = model.training_step(x.data(), target.data(), 0.5f, rng);
  }
  EXPECT_LT(last, prev) << "SGD on an L2 objective must reduce the loss";
}

TEST(LlmModel, PrefillThenDecodeRuns) {
  LlmConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.ffn = 128;
  cfg.vocab = 256;
  cfg.max_seq = 64;
  cfg.bm = cfg.bn = cfg.bk = 16;
  Xoshiro256 rng(51);
  LlmModel model(cfg, rng);
  const auto t = model.generate(32, 4, rng);
  EXPECT_GT(t.first_token_ms, 0.0);
  EXPECT_GT(t.per_next_token_ms, 0.0);
  // Prefill does O(S) times more work than one decode step.
  EXPECT_GT(t.first_token_ms, t.per_next_token_ms);
}

TEST(LlmModel, DecodeMatchesPrefillForSameToken) {
  // Processing tokens [0, S) via prefill and then re-deriving position S-1's
  // output via decode_one on the same inputs must agree: run prefill over
  // S-1 tokens, then decode token S-1 and compare against a full S prefill.
  LlmConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 64;
  cfg.max_seq = 16;
  cfg.bm = cfg.bn = cfg.bk = 8;
  Xoshiro256 rng(61);
  DecoderLayer full(cfg, rng);
  Xoshiro256 rng2(61);
  DecoderLayer split(cfg, rng2);

  const std::int64_t S = 8, H = cfg.hidden;
  auto x = random_vec(static_cast<std::size_t>(S * H), 62);
  std::vector<float> y_full(static_cast<std::size_t>(S * H));
  full.prefill(x.data(), S, y_full.data());

  std::vector<float> y_head(static_cast<std::size_t>((S - 1) * H));
  split.prefill(x.data(), S - 1, y_head.data());
  std::vector<float> y_last(static_cast<std::size_t>(H));
  split.decode_one(x.data() + (S - 1) * H, S - 1, y_last.data());

  for (std::int64_t d = 0; d < H; ++d) {
    EXPECT_NEAR(y_last[static_cast<std::size_t>(d)],
                y_full[static_cast<std::size_t>((S - 1) * H + d)], 1e-3f)
        << d;
  }
}

// --- the LLM step: one team region per step ----------------------------------

LlmConfig step_cfg() {
  LlmConfig c;
  c.hidden = 64;
  c.heads = 4;
  c.layers = 3;
  c.ffn = 128;
  c.max_seq = 40;
  c.bm = c.bn = c.bk = 16;
  return c;
}

constexpr std::int64_t kStepPrompt = 16, kStepGen = 6;

std::vector<Runtime> built_runtimes() {
  std::vector<Runtime> rts = {Runtime::kSerial, Runtime::kPool};
#if defined(PLT_HAVE_OPENMP)
  rts.push_back(Runtime::kOpenMP);
#endif
  return rts;
}

// Stepped generation as serving runs it: step 0 = prefill + first token,
// then one step per token. Returns the [gen][hidden] token states.
std::vector<float> stepped_generation(DecoderStack& stack,
                                      const std::vector<float>& prompt) {
  std::vector<float> out(static_cast<std::size_t>(kStepGen * step_cfg().hidden));
  for (std::int64_t g = 0; g < kStepGen; ++g) {
    stack.step(g == 0 ? prompt.data() : nullptr, kStepPrompt, g, g + 1,
               out.data());
  }
  return out;
}

// Every runtime, and every PLT_NUM_THREADS team size (ctest runs this suite
// as test_dl_threads{1,2,3,4}), reproduces the serial runtime's bits; the
// monolithic one-step generation matches the stepped one.
TEST(DecoderStack, StepsBitwiseEqualAcrossRuntimesAndTeamSizes) {
  const auto prompt = random_vec(
      static_cast<std::size_t>(kStepPrompt * step_cfg().hidden), 81);
  const Runtime saved = runtime();
  std::vector<float> ref;
  for (Runtime rt : built_runtimes()) {
    set_runtime(rt);
    Xoshiro256 rng(82);
    DecoderStack stack(step_cfg(), kStepPrompt, rng);
    const std::vector<float> stepped = stepped_generation(stack, prompt);
    std::vector<float> whole(stepped.size());
    stack.step(prompt.data(), kStepPrompt, 0, kStepGen, whole.data());
    plt::test::expect_bitwise(whole.data(), stepped.data(), whole.size(),
                              runtime_name(rt));
    if (ref.empty()) ref = stepped;
    plt::test::expect_bitwise(stepped.data(), ref.data(), ref.size(),
                              runtime_name(rt));
  }
  set_runtime(saved);
}

// The member-side layer bodies at every region width 1 .. team + 1 give the
// one-member result bit for bit (prefill and decode).
TEST(DecoderStack, LayerMembersBitwiseEqualAtEveryRegionWidth) {
  const LlmConfig cfg = step_cfg();
  const std::int64_t S = kStepPrompt, H = cfg.hidden;
  const auto x = random_vec(static_cast<std::size_t>(S * H), 83);
  std::vector<float> ref_pre, ref_dec;
  for (int w = 1; w <= max_threads() + 1; ++w) {
    Xoshiro256 rng(84);
    DecoderLayer layer(cfg, rng);
    layer.prepare_tokens(S);
    std::vector<float> pre(static_cast<std::size_t>(S * H));
    std::vector<float> dec(static_cast<std::size_t>(H));
    parlooper::team_region(
        [&](parlooper::TeamMember& m) {
          layer.prefill_member(m, x.data(), S, pre.data());
          layer.decode_member(m, pre.data() + (S - 1) * H, S, dec.data());
        },
        w);
    if (w == 1) {
      ref_pre = pre;
      ref_dec = dec;
      continue;
    }
    const std::string what = "width " + std::to_string(w);
    plt::test::expect_bitwise(pre.data(), ref_pre.data(), pre.size(), what);
    plt::test::expect_bitwise(dec.data(), ref_dec.data(), dec.size(), what);
  }
}

// An injected kernel fault inside the step region reaches the caller under
// every runtime without a hang, draws exactly one kernel_exec event (member 0
// of the first nest; everything after it is skipped), and leaves the stack
// usable: the next generation reproduces the reference bits.
TEST(DecoderStack, KernelFaultInStepReachesCallerUnderEveryRuntime) {
  namespace fault = common::fault;
  const auto prompt = random_vec(
      static_cast<std::size_t>(kStepPrompt * step_cfg().hidden), 85);
  const Runtime saved = runtime();
  for (Runtime rt : built_runtimes()) {
    set_runtime(rt);
    Xoshiro256 rng(86);
    DecoderStack stack(step_cfg(), kStepPrompt, rng);
    const std::vector<float> ref = stepped_generation(stack, prompt);

    std::vector<float> out(ref.size());
    fault::configure("kernel_exec:throw:1", 9);
    try {
      stack.step(prompt.data(), kStepPrompt, 0, kStepGen, out.data());
      ADD_FAILURE() << runtime_name(rt) << ": injected fault did not surface";
    } catch (const RuntimeError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInternal) << runtime_name(rt);
    }
    EXPECT_EQ(fault::evaluated(fault::Site::kKernelExec), 1u)
        << runtime_name(rt);
    EXPECT_EQ(fault::injected(fault::Site::kKernelExec), 1u)
        << runtime_name(rt);
    fault::reset();

    const std::vector<float> again = stepped_generation(stack, prompt);
    plt::test::expect_bitwise(again.data(), ref.data(), ref.size(),
                              runtime_name(rt));
  }
  set_runtime(saved);
}

// A failed precondition of member code (a decode position past max_seq, an
// FC token count that was never prepared) is recorded on every member, not
// thrown past the barriers: it reaches the caller under every runtime
// without a hang, and no member wrote the output.
TEST(DecoderStack, MemberPreconditionReachesCallerUnderEveryRuntime) {
  const LlmConfig cfg = step_cfg();
  const auto x = random_vec(static_cast<std::size_t>(cfg.hidden), 87);
  const Runtime saved = runtime();
  for (Runtime rt : built_runtimes()) {
    set_runtime(rt);
    Xoshiro256 rng(88);
    DecoderLayer layer(cfg, rng);
    std::vector<float> y(static_cast<std::size_t>(cfg.hidden), 7.0f);
    EXPECT_THROW(parlooper::team_region([&](parlooper::TeamMember& m) {
                   layer.decode_member(m, x.data(), cfg.max_seq, y.data());
                 }),
                 std::invalid_argument)
        << runtime_name(rt);
    for (float v : y) ASSERT_EQ(v, 7.0f) << runtime_name(rt);

    FcConfig fc_cfg;
    fc_cfg.in_features = fc_cfg.out_features = 64;
    fc_cfg.tokens = 8;
    fc_cfg.bm = fc_cfg.bn = fc_cfg.bk = 16;
    FcLayer fc(fc_cfg, rng);
    std::vector<float> in(8 * 64, 1.0f), out(8 * 64, 7.0f);
    EXPECT_THROW(parlooper::team_region([&](parlooper::TeamMember& m) {
                   fc.forward_member(m, in.data(), 3, out.data());
                 }),
                 std::invalid_argument)
        << runtime_name(rt);
    for (float v : out) ASSERT_EQ(v, 7.0f) << runtime_name(rt);
  }
  set_runtime(saved);
}

// A decode step makes no heap allocation once the stack is warm: its nest
// bodies, phases and per-head score rows all live in preallocated storage
// (operator new is counted for the whole process, pool members included).
TEST(DecoderStack, WarmDecodeStepAllocatesNothing) {
  const auto prompt = random_vec(
      static_cast<std::size_t>(kStepPrompt * step_cfg().hidden), 89);
  Xoshiro256 rng(90);
  DecoderStack stack(step_cfg(), kStepPrompt, rng);
  std::vector<float> out(static_cast<std::size_t>(kStepGen * step_cfg().hidden));
  stack.step(prompt.data(), kStepPrompt, 0, 1, out.data());
  stack.step(nullptr, kStepPrompt, 1, 2, out.data());
  const long before = g_allocations.load();
  for (std::int64_t g = 2; g < kStepGen; ++g)
    stack.step(nullptr, kStepPrompt, g, g + 1, out.data());
  EXPECT_EQ(g_allocations.load() - before, 0) << runtime_name(runtime());
}

}  // namespace
}  // namespace plt::dl
