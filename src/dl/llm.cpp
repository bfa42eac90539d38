#include "dl/llm.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "tpp/equations.hpp"
#include "tpp/transforms.hpp"

namespace plt::dl {

namespace {

FcConfig proj_cfg(const LlmConfig& c, std::int64_t in_f, std::int64_t out_f,
                  FcActivation act) {
  FcConfig f;
  f.in_features = in_f;
  f.out_features = out_f;
  f.tokens = c.max_seq;
  f.bm = c.bm;
  f.bn = c.bn;
  f.bk = c.bk;
  f.dtype = c.dtype;
  f.act = act;
  f.loop_spec = c.loop_spec;
  return f;
}

}  // namespace

LlmConfig LlmConfig::gptj_scaled() {
  LlmConfig c;
  c.hidden = 256;
  c.heads = 4;
  c.layers = 6;
  c.ffn = 1024;
  return c;
}

LlmConfig LlmConfig::llama2_scaled() {
  LlmConfig c;
  c.hidden = 320;
  c.heads = 5;
  c.layers = 8;   // deeper, like Llama2-13B vs GPT-J-6B
  c.ffn = 864;    // ~2.7x hidden, Llama-style
  return c;
}

DecoderLayer::DecoderLayer(const LlmConfig& cfg, Xoshiro256& rng)
    : cfg_(cfg),
      q_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      k_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      v_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      o_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      up_(proj_cfg(cfg, cfg.hidden, cfg.ffn, FcActivation::kGelu), rng),
      down_(proj_cfg(cfg, cfg.ffn, cfg.hidden, FcActivation::kNone), rng),
      ln1_(cfg.max_seq, cfg.hidden),
      ln2_(cfg.max_seq, cfg.hidden) {
  PLT_CHECK(cfg_.hidden % cfg_.heads == 0, "llm: heads must divide hidden");
  k_cache_.reshape({cfg_.max_seq, cfg_.hidden});
  v_cache_.reshape({cfg_.max_seq, cfg_.hidden});
  qb_.reshape({cfg_.max_seq, cfg_.hidden});
  ctx_.reshape({cfg_.max_seq, cfg_.hidden});
  proj_.reshape({cfg_.max_seq, cfg_.hidden});
  res1_.reshape({cfg_.max_seq, cfg_.hidden});
  ln1_out_.reshape({cfg_.max_seq, cfg_.hidden});
  ffn_mid_.reshape({cfg_.max_seq, cfg_.ffn});
  ffn_out_.reshape({cfg_.max_seq, cfg_.hidden});
  dec_normed_.reshape({cfg_.hidden});
  dec_qv_.reshape({cfg_.hidden});
  dec_ctx_.reshape({cfg_.hidden});
  dec_proj_.reshape({cfg_.hidden});
  dec_r1_.reshape({cfg_.hidden});
  dec_mid_.reshape({cfg_.ffn});
  dec_down_.reshape({cfg_.hidden});
  dec_scores_.reshape({cfg_.heads, cfg_.max_seq});
  prepare_tokens(1);
}

void DecoderLayer::prepare_tokens(std::int64_t seq) const {
  for (const FcLayer* fc : {&q_, &k_, &v_, &o_, &up_, &down_}) {
    fc->prepare_tokens(seq);
  }
}

void DecoderLayer::attention_prefill(const float* q, std::int64_t seq,
                                     std::int64_t h_lo, std::int64_t h_hi,
                                     float* out) const {
  const std::int64_t H = cfg_.hidden, dh = cfg_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // Causal mask: query i sees keys [0, i].
  std::vector<std::int32_t> valid(static_cast<std::size_t>(seq));
  for (std::int64_t i = 0; i < seq; ++i)
    valid[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i + 1);

  std::vector<float> kt(static_cast<std::size_t>(seq * dh));
  std::vector<float> st(static_cast<std::size_t>(seq * seq));
  std::vector<float> vp(static_cast<std::size_t>(seq * dh));
  for (std::int64_t h = h_lo; h < h_hi; ++h) {
    const float* kh = k_cache_.data() + h * dh;
    const float* vh = v_cache_.data() + h * dh;
    const float* qh = q + h * dh;
    float* oh = out + h * dh;

    tpp::transpose_2d(kh, kt.data(), dh, seq, H, seq);
    tpp::GemmTPP score_gemm(seq, seq, dh, 0.0f, DType::F32, DType::F32,
                            DType::F32, tpp::ALayout::kFlat, seq, H, seq);
    score_gemm(kt.data(), qh, st.data());
    tpp::softmax_scale_mask_rows(st.data(), st.data(), seq, seq, seq, seq,
                                 scale, valid.data());
    for (std::int64_t t = 0; t < seq; ++t)
      for (std::int64_t d = 0; d < dh; ++d)
        vp[static_cast<std::size_t>(t * dh + d)] = vh[t * H + d];
    tpp::GemmTPP ctx_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32,
                          DType::F32, tpp::ALayout::kFlat, dh, seq, H);
    ctx_gemm(vp.data(), st.data(), oh);
  }
}

void DecoderLayer::attention_decode(const float* q, std::int64_t pos,
                                    std::int64_t h_lo, std::int64_t h_hi,
                                    float* out) {
  const std::int64_t H = cfg_.hidden, dh = cfg_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t len = pos + 1;
  for (std::int64_t h = h_lo; h < h_hi; ++h) {
    float* scores = dec_scores_.data() + h * cfg_.max_seq;
    const float* qh = q + h * dh;
    float mx = -1e30f;
    for (std::int64_t j = 0; j < len; ++j) {
      const float* kj = k_cache_.data() + j * H + h * dh;
      float dot = 0.0f;
      for (std::int64_t d = 0; d < dh; ++d) dot += qh[d] * kj[d];
      scores[j] = dot * scale;
      mx = std::max(mx, dot * scale);
    }
    float sum = 0.0f;
    for (std::int64_t j = 0; j < len; ++j) {
      scores[j] = std::exp(scores[j] - mx);
      sum += scores[j];
    }
    const float inv = 1.0f / sum;
    float* oh = out + h * dh;
    for (std::int64_t d = 0; d < dh; ++d) oh[d] = 0.0f;
    for (std::int64_t j = 0; j < len; ++j) {
      const float p = scores[j] * inv;
      const float* vj = v_cache_.data() + j * H + h * dh;
      for (std::int64_t d = 0; d < dh; ++d) oh[d] += p * vj[d];
    }
  }
}

void DecoderLayer::prefill(const float* x, std::int64_t seq, float* y) {
  prepare_tokens(seq);
  parlooper::team_region(
      [&](parlooper::TeamMember& m) { prefill_member(m, x, seq, y); });
}

void DecoderLayer::decode_one(const float* x, std::int64_t pos, float* y) {
  parlooper::team_region(
      [&](parlooper::TeamMember& m) { decode_member(m, x, pos, y); });
}

void DecoderLayer::prefill_member(parlooper::TeamMember& m, const float* x,
                                  std::int64_t seq, float* y) {
  const std::int64_t H = cfg_.hidden;
  if (!m.check(seq <= cfg_.max_seq, "llm: sequence exceeds max_seq")) return;
  // Pre-norm transformer block.
  float* normed = ln1_out_.data();
  m.split(seq, [&](std::int64_t lo, std::int64_t hi) {
    ln1_.forward_rows(x, normed, lo, hi);
  });

  q_.forward_member(m, normed, seq, qb_.data());
  k_.forward_member(m, normed, seq, k_cache_.data());
  v_.forward_member(m, normed, seq, v_cache_.data());
  m.split(cfg_.heads, [&](std::int64_t lo, std::int64_t hi) {
    attention_prefill(qb_.data(), seq, lo, hi, ctx_.data());
  });
  o_.forward_member(m, ctx_.data(), seq, proj_.data());
  m.split(seq, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo * H; i < hi * H; ++i)
      res1_[static_cast<std::size_t>(i)] =
          x[i] + proj_[static_cast<std::size_t>(i)];
    ln2_.forward_rows(res1_.data(), normed, lo, hi);
  });

  up_.forward_member(m, normed, seq, ffn_mid_.data());
  down_.forward_member(m, ffn_mid_.data(), seq, ffn_out_.data());
  m.split(seq * H, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      y[i] = res1_[static_cast<std::size_t>(i)] +
             ffn_out_[static_cast<std::size_t>(i)];
  });
}

void DecoderLayer::decode_member(parlooper::TeamMember& m, const float* x,
                                 std::int64_t pos, float* y) {
  const std::int64_t H = cfg_.hidden;
  if (!m.check(pos < cfg_.max_seq, "llm: position exceeds max_seq")) return;
  float* normed = dec_normed_.data();
  m.single([&] { ln1_.forward_rows(x, normed, 0, 1); });

  float* qv = dec_qv_.data();
  q_.forward_member(m, normed, 1, qv);
  k_.forward_member(m, normed, 1, k_cache_.data() + pos * H);
  v_.forward_member(m, normed, 1, v_cache_.data() + pos * H);

  float* ctx = dec_ctx_.data();
  m.split(cfg_.heads, [&](std::int64_t lo, std::int64_t hi) {
    attention_decode(qv, pos, lo, hi, ctx);
  });
  float* proj = dec_proj_.data();
  o_.forward_member(m, ctx, 1, proj);
  // One row: the residual add rides along with the layernorm reading it.
  float* r1 = dec_r1_.data();
  m.single([&] {
    for (std::int64_t i = 0; i < H; ++i) r1[i] = x[i] + proj[i];
    ln2_.forward_rows(r1, normed, 0, 1);
  });

  float* mid = dec_mid_.data();
  up_.forward_member(m, normed, 1, mid);
  float* down = dec_down_.data();
  down_.forward_member(m, mid, 1, down);
  m.split(H, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) y[i] = r1[i] + down[i];
  });
}

DecoderStack::DecoderStack(const LlmConfig& cfg, std::int64_t prompt_capacity,
                           Xoshiro256& rng)
    : cfg_(cfg), prompt_capacity_(prompt_capacity) {
  PLT_CHECK(cfg.layers >= 1, "llm: a stack needs at least one layer");
  PLT_CHECK(prompt_capacity >= 1 && prompt_capacity <= cfg.max_seq,
            "llm: prompt capacity must be in [1, max_seq]");
  for (std::int64_t l = 0; l < cfg_.layers; ++l)
    layers_.push_back(std::make_unique<DecoderLayer>(cfg_, rng));
  const std::size_t hs = static_cast<std::size_t>(prompt_capacity * cfg_.hidden);
  ping_.assign(hs, 0.0f);
  pong_.assign(hs, 0.0f);
  for (std::vector<float>& t : tok_)
    t.assign(static_cast<std::size_t>(cfg_.hidden), 0.0f);
}

void DecoderStack::step(const float* prompt, std::int64_t prompt_len,
                        std::int64_t begin, std::int64_t end, float* out) {
  const std::int64_t H = cfg_.hidden;
  PLT_CHECK(prompt_len >= 1 && prompt_len <= prompt_capacity_,
            "llm: prompt length exceeds the stack's capacity");
  PLT_CHECK(begin <= end && prompt_len + end <= cfg_.max_seq,
            "llm: prompt + generation exceeds max_seq");
  if (prompt != nullptr) {
    for (auto& layer : layers_) layer->prepare_tokens(prompt_len);
  }
  // Buffer roles are a pure function of the layer count, so every member
  // (and the caller, afterwards) derives the same ones.
  const std::size_t nlayers = layers_.size();
  float* const pp[2] = {ping_.data(), pong_.data()};
  parlooper::team_region([&](parlooper::TeamMember& m) {
    int c = cur_;
    if (prompt != nullptr) {
      const float* src = prompt;
      for (std::size_t l = 0; l < nlayers; ++l) {
        layers_[l]->prefill_member(m, src, prompt_len, pp[l % 2]);
        src = pp[l % 2];
      }
      const float* last = src + (prompt_len - 1) * H;
      float* tok = tok_[c].data();
      m.split(H, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t d = lo; d < hi; ++d) tok[d] = last[d] * 0.5f;
      });
    }
    for (std::int64_t g = begin; g < end; ++g) {
      const std::int64_t pos = prompt_len + g;
      for (auto& layer : layers_) {
        layer->decode_member(m, tok_[c].data(), pos, tok_[1 - c].data());
        c = 1 - c;
      }
      if (out != nullptr) {
        const float* tok = tok_[c].data();
        m.split(H, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t d = lo; d < hi; ++d) out[g * H + d] = tok[d];
        });
      }
    }
  });
  if (prompt != nullptr) prefilled_ = pp[(nlayers - 1) % 2];
  if (((end - begin) * static_cast<std::int64_t>(nlayers)) % 2 != 0) {
    cur_ = 1 - cur_;
  }
}

LlmModel::LlmModel(LlmConfig cfg, Xoshiro256& rng)
    : cfg_(cfg), stack_(cfg_, cfg_.max_seq, rng) {
  lm_head_.reshape({cfg_.vocab, cfg_.hidden});
  lm_head_.randn_uniform(rng, -0.05f, 0.05f);
}

LlmModel::Timing LlmModel::generate(std::int64_t prompt_len,
                                    std::int64_t gen_tokens, Xoshiro256& rng) {
  const std::int64_t H = cfg_.hidden;
  PLT_CHECK(prompt_len + gen_tokens <= cfg_.max_seq,
            "llm: prompt + generation exceeds max_seq");
  Tensor x({prompt_len, H});
  x.randn_uniform(rng, -1.0f, 1.0f);

  // LM head (logits over the vocabulary) for the token in `h`.
  std::vector<float> logits(static_cast<std::size_t>(cfg_.vocab));
  const auto lm_head = [&](const float* h) {
    for (std::int64_t o = 0; o < cfg_.vocab; ++o) {
      float acc = 0.0f;
      for (std::int64_t d = 0; d < H; ++d)
        acc += lm_head_[static_cast<std::size_t>(o * H + d)] * h[d];
      logits[static_cast<std::size_t>(o)] = acc;
    }
  };

  Timing t;
  WallTimer prefill_timer;
  stack_.step(x.data(), prompt_len, 0, 0, nullptr);
  lm_head(stack_.prefill_output() + (prompt_len - 1) * H);
  t.first_token_ms = prefill_timer.millis();

  WallTimer decode_timer;
  for (std::int64_t g = 0; g < gen_tokens; ++g) {
    stack_.step(nullptr, prompt_len, g, g + 1, nullptr);
    lm_head(stack_.token());
  }
  t.per_next_token_ms =
      gen_tokens > 0 ? decode_timer.millis() / static_cast<double>(gen_tokens)
                     : 0.0;
  return t;
}

double LlmModel::prefill_flops(std::int64_t seq) const {
  const double h = static_cast<double>(cfg_.hidden);
  const double per_layer = 2.0 * seq * h * h * 4.0 +              // q,k,v,o
                           2.0 * seq * h * cfg_.ffn * 2.0 +       // up, down
                           4.0 * seq * seq * h;                   // attention
  return per_layer * static_cast<double>(cfg_.layers);
}

}  // namespace plt::dl
