// Fig. 11: LLM inference latency (GPT-J / Llama2 style decoders, batch 1):
// first-token (prefill, compute bound) and per-next-token (KV-cache decode,
// bandwidth bound), for the framework-default schedule substitute ("hf-sub",
// serial K-outer loops) vs PARLOOPER, in fp32 and bf16. Expected shape:
// PARLOOPER wins (paper: 1.1x-2.8x), bf16 accelerates prefill more than
// decode, next-token << first-token.
#include "bench/bench_util.hpp"
#include "dl/llm.hpp"

using namespace plt;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const std::int64_t prompt = full ? 1024 : 128;
  const std::int64_t gen = full ? 32 : 8;

  bench::print_header("Fig. 11 — LLM inference (batch 1)");
  std::printf("%-10s %-10s %-6s %16s %16s\n", "model", "stack", "dtype",
              "first-token ms", "next-token ms");

  struct ModelCase {
    const char* name;
    dl::LlmConfig cfg;
  };
  for (ModelCase mc : {ModelCase{"gptj", dl::LlmConfig::gptj_scaled()},
                       ModelCase{"llama2", dl::LlmConfig::llama2_scaled()}}) {
    mc.cfg.max_seq = prompt + gen;
    for (const char* stack : {"hf-sub", "parlooper"}) {
      for (DType dt : {DType::F32, DType::BF16}) {
        dl::LlmConfig cfg = mc.cfg;
        cfg.dtype = dt;
        cfg.loop_spec = std::string(stack) == "hf-sub" ? "abc" : "BCa";
        Xoshiro256 rng(31);
        dl::LlmModel model(cfg, rng);
        const auto t = model.generate(prompt, gen, rng);
        std::printf("%-10s %-10s %-6s %16.2f %16.3f\n", mc.name, stack,
                    dt == DType::F32 ? "fp32" : "bf16", t.first_token_ms,
                    t.per_next_token_ms);
      }
    }
  }
  std::printf("\nexpected shape: parlooper <= hf-sub latency; bf16 helps the "
              "compute-bound first token most; next-token << first-token.\n");

  // Next-token cost vs visible KV-cache length: one decoder layer decoding
  // at a short and a long position over the same filled cache. Position
  // 399 attends to 8x more cache rows than 49.
  {
    dl::LlmConfig cfg = dl::LlmConfig::gptj_scaled();
    cfg.max_seq = 512;
    constexpr std::int64_t kFilled = 400, kReps = 50;
    Xoshiro256 rng(13);
    dl::DecoderLayer layer(cfg, rng);
    dl::Tensor prompt({kFilled, cfg.hidden}), out({kFilled, cfg.hidden});
    prompt.randn_uniform(rng);
    layer.prefill(prompt.data(), kFilled, out.data());
    std::vector<float> x(static_cast<std::size_t>(cfg.hidden), 0.1f);
    std::vector<float> y(x.size());
    const auto us_per_token = [&](std::int64_t pos) {
      layer.decode_one(x.data(), pos, y.data());  // warm
      WallTimer t;
      for (std::int64_t i = 0; i < kReps; ++i) {
        layer.decode_one(x.data(), pos, y.data());
      }
      return t.micros() / static_cast<double>(kReps);
    };
    const double short_us = us_per_token(49);
    const double long_us = us_per_token(kFilled - 1);
    std::printf("\ndecode cost vs cache length (gptj layer, fp32): "
                "pos 49 %.1f us, pos %lld %.1f us, ratio %.2fx "
                "(expected > 1: decode reads the whole visible cache)\n",
                short_us, static_cast<long long>(kFilled - 1), long_us,
                long_us / short_us);
  }
  return 0;
}
