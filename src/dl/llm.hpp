// Decoder-only LLM inference pipeline (Section IV-A / Fig. 11): GPT-J- and
// Llama2-style transformer decoders with a KV cache, split into the two
// phases the paper reports — the compute-bound prefill ("first token") and
// the bandwidth-bound autoregressive generation ("next tokens").
#pragma once

#include <memory>
#include <vector>

#include "dl/fc_layer.hpp"
#include "dl/layernorm.hpp"
#include "dl/tensor.hpp"
#include "parlooper/team.hpp"

namespace plt::dl {

struct LlmConfig {
  std::int64_t hidden = 256;
  std::int64_t heads = 4;
  std::int64_t layers = 4;
  std::int64_t ffn = 1024;       // MLP width
  std::int64_t vocab = 4096;
  std::int64_t max_seq = 1152;   // prompt + generated tokens
  DType dtype = DType::F32;
  std::int64_t bm = 32, bn = 32, bk = 32;
  std::string loop_spec = "BCa";

  std::int64_t head_dim() const { return hidden / heads; }

  // Scaled stand-ins for GPT-J-6B and Llama2-13B (same architecture family,
  // different depth/width ratios).
  static LlmConfig gptj_scaled();
  static LlmConfig llama2_scaled();
};

class DecoderLayer {
 public:
  DecoderLayer(const LlmConfig& cfg, Xoshiro256& rng);

  // Prefill: processes `seq` tokens at once with a causal mask and fills
  // positions [0, seq) of the KV cache. x/y: [seq][hidden]. Runs as one
  // team region.
  void prefill(const float* x, std::int64_t seq, float* y);

  // Decode: processes one token at position `pos` against the cache
  // (positions [0, pos] become visible). x/y: [hidden]. Runs as one team
  // region.
  void decode_one(const float* x, std::int64_t pos, float* y);

  // Member-side bodies of prefill()/decode_one(): every member of the
  // current team region calls them (parlooper/team.hpp). Layernorms split
  // by rows, the six projections run as collective nests, attention splits
  // over heads and residual adds by element; each phase ends in a region
  // barrier. Every output element keeps its reduction order, so results are
  // bitwise equal for any member count. prefill_member needs
  // prepare_tokens(seq) first.
  void prepare_tokens(std::int64_t seq) const;
  void prefill_member(parlooper::TeamMember& m, const float* x,
                      std::int64_t seq, float* y);
  void decode_member(parlooper::TeamMember& m, const float* x,
                     std::int64_t pos, float* y);

 private:
  // Heads [h_lo, h_hi), each computed whole by the calling thread.
  void attention_prefill(const float* q, std::int64_t seq, std::int64_t h_lo,
                         std::int64_t h_hi, float* out) const;
  void attention_decode(const float* q, std::int64_t pos, std::int64_t h_lo,
                        std::int64_t h_hi, float* out);

  const LlmConfig cfg_;
  FcLayer q_, k_, v_, o_, up_, down_;
  LayerNorm ln1_, ln2_;
  Tensor k_cache_, v_cache_;  // [max_seq][hidden]
  Tensor qb_, ctx_, proj_, res1_, ln1_out_, ffn_mid_, ffn_out_;
  // Single-token decode scratch, preallocated: the decode path is called
  // per generated token per layer, so per-call heap traffic would dominate
  // its bandwidth-bound profile. Score rows are per head, so heads can run
  // on different threads.
  Tensor dec_normed_, dec_qv_, dec_ctx_, dec_proj_, dec_r1_, dec_mid_,
      dec_down_;
  Tensor dec_scores_;  // [heads][max_seq]
};

// A stack of decoder layers plus the activations that carry a generation
// from step to step. step() is the one place the layer loop lives: LlmModel
// and the serving session both drive generation through it.
class DecoderStack {
 public:
  // prompt_capacity bounds the prompt length step() accepts.
  DecoderStack(const LlmConfig& cfg, std::int64_t prompt_capacity,
               Xoshiro256& rng);

  // One generation step, run as one team region around all layers (nested
  // inside another region it runs on the caller alone). With `prompt`
  // non-null, every layer first prefills over the prompt ([prompt_len]
  // [hidden]) and the decode token is seeded from the last position. Then
  // tokens [begin, end) are decoded against the KV caches, token g at
  // position prompt_len + g; its hidden state goes to row g of `out` (when
  // non-null). Consecutive steps continue one generation.
  void step(const float* prompt, std::int64_t prompt_len, std::int64_t begin,
            std::int64_t end, float* out);

  // The last prefill's final-layer output, [prompt_len][hidden].
  const float* prefill_output() const { return prefilled_; }
  // The current token's hidden state, [hidden].
  const float* token() const { return tok_[cur_].data(); }

 private:
  LlmConfig cfg_;
  std::int64_t prompt_capacity_;
  std::vector<std::unique_ptr<DecoderLayer>> layers_;
  std::vector<float> ping_, pong_;
  std::vector<float> tok_[2];
  int cur_ = 0;  // which tok_ buffer holds the current token
  const float* prefilled_ = nullptr;
};

class LlmModel {
 public:
  LlmModel(LlmConfig cfg, Xoshiro256& rng);

  // Runs prefill over `prompt_len` synthetic token embeddings, then
  // generates `gen_tokens` tokens. Returns per-phase wall times.
  struct Timing {
    double first_token_ms = 0.0;   // prefill + first generation step
    double per_next_token_ms = 0.0;
  };
  Timing generate(std::int64_t prompt_len, std::int64_t gen_tokens,
                  Xoshiro256& rng);

  const LlmConfig& config() const { return cfg_; }
  double prefill_flops(std::int64_t seq) const;

 private:
  LlmConfig cfg_;
  DecoderStack stack_;
  Tensor lm_head_;  // [vocab][hidden]
};

}  // namespace plt::dl
