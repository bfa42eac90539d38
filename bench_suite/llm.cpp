// llm_generate: batch-1 generation on the gptj_scaled decoder (hidden 256,
// 6 layers, ffn 1024, fp32), prompt 128, 32 generated tokens, driven through
// the serving session's step interface exactly as the scheduler steps it:
// step 0 prefills the prompt and decodes the first token (time to first
// token), every later step decodes one token (inter-token latency).
//
// Same dl/kernels code as dense_kernels, used differently: prefill is
// compute-bound at M=128, decode runs M=1 FCs bound by weight bandwidth and
// per-nest dispatch plus KV-cache appends. A dispatch or decode-path change
// moves the token latency; a big-GEMM change moves the first token.
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "serving/session.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace plt::suite {

namespace {

constexpr std::int64_t kPrompt = kLlmPrompt;
constexpr int kGen = kLlmGen;
constexpr int kPrompts = 8;  // distinct prompts, cycled over the window

class LlmGenerate final : public Workload {
 public:
  explicit LlmGenerate(const Options& o) : cfg_(dl::LlmConfig::gptj_scaled()) {
    cfg_.max_seq = kPrompt + kGen;
    Xoshiro256 rng(o.seed);
    for (int p = 0; p < kPrompts; ++p) {
      prompts_.emplace_back(static_cast<std::size_t>(kPrompt * cfg_.hidden));
      fill_uniform(prompts_.back().data(), prompts_.back().size(), rng, -1.0f,
                   1.0f);
    }
    first_.resize(kPrompts);
    out_.resize(static_cast<std::size_t>(kGen * cfg_.hidden));
  }

  void setup() override {
    // One lane: batch 1. Construction packs weights, builds every plan and
    // runs a warmup request; one stepped request warms the step path too.
    session_ = serving::make_llm_session("gptj", cfg_, kPrompt, kGen, 1,
                                         kWeightSeed);
    for (int s = 0; s < kGen; ++s) {
      session_->run_step(0, prompts_[0].data(), out_.data(), s, 1);
    }
  }

  void teardown() override { session_.reset(); }

  Window measure(double seconds) override {
    Window w;
    std::vector<double> ttft, itl;
    double busy_s = 0.0;
    const std::uint64_t t_start = trace::now_ns();
    const std::uint64_t end =
        t_start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t prev_end = t_start;
    do {
      const std::uint64_t req = ++requests_;
      const std::size_t p = static_cast<std::size_t>(req % kPrompts);
      trace::Span request("llm.request", "op", req);
      for (int s = 0; s < kGen; ++s) {
        const std::uint64_t t0 = trace::now_ns();
        {
          trace::Span step("llm.step", "exec", req);
          session_->run_step(0, prompts_[p].data(), out_.data(), s, 1);
        }
        const std::uint64_t t1 = trace::now_ns();
        const double ms = static_cast<double>(t1 - t0) * 1e-6;
        (s == 0 ? ttft : itl).push_back(ms);
        w.late_us.push_back(static_cast<double>(t0 - prev_end) * 1e-3);
        busy_s += ms * 1e-3;
        prev_end = t1;
      }
      ++w.attempted;
      // Every repeat of a prompt must reproduce its first output bit for
      // bit; verify() checks the first one against a monolithic run().
      if (first_[p].empty()) {
        first_[p] = out_;
      } else if (std::memcmp(first_[p].data(), out_.data(),
                             out_.size() * sizeof(float)) != 0) {
        ++mismatches_;
        ++w.failed;
      }
    } while (prev_end < end);
    w.seconds = static_cast<double>(trace::now_ns() - t_start) * 1e-9;
    w.ok = w.attempted - w.failed;
    w.p50 = percentile(itl, 0.50);
    w.p90 = percentile(itl, 0.90);
    w.p99 = percentile(itl, 0.99);
    w.throughput_n = static_cast<std::size_t>(w.attempted) * kGen;
    w.throughput = static_cast<double>(w.throughput_n) / busy_s;
    const Percentile f50 = percentile(ttft, 0.50), f90 = percentile(ttft, 0.90);
    std::printf("  time to first token p50 %.4f ms p90 %.4f ms (n=%zu); "
                "inter-token p50 %.4f ms (n=%zu)\n",
                f50.value, f90.value, f50.n, w.p50.value, w.p50.n);
    return w;
  }

  std::uint64_t verify() override {
    std::uint64_t wrong = mismatches_;
    std::vector<float> ref(out_.size());
    for (int p = 0; p < kPrompts; ++p) {
      if (first_[static_cast<std::size_t>(p)].empty()) continue;
      session_->run(0, prompts_[static_cast<std::size_t>(p)].data(), ref.data());
      if (std::memcmp(ref.data(), first_[static_cast<std::size_t>(p)].data(),
                      ref.size() * sizeof(float)) != 0) {
        std::printf("  check prompt %d: stepped output != monolithic run()\n", p);
        ++wrong;
      }
    }
    std::printf("  check: stepped outputs bitwise-equal to run() for every "
                "prompt seen: %s\n",
                wrong == 0 ? "ok" : "WRONG");
    return wrong;
  }

  void layer_metrics(const Roofs&, Metrics* out) override {
    add_idle_kernel_metrics(out);
    add_idle_serving_metrics(out);
  }

 private:
  dl::LlmConfig cfg_;
  std::vector<std::vector<float>> prompts_, first_;
  std::vector<float> out_;
  std::shared_ptr<serving::Session> session_;
  std::uint64_t requests_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_llm_generate(const Options& o) {
  return std::make_unique<LlmGenerate>(o);
}

}  // namespace plt::suite
