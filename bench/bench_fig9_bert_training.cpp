// Fig. 9: BERT-Large fine-tuning throughput (sequences/sec). Software
// tiers (the vendor stacks are not available here, so each is substituted
// by a schedule of this repo's own kernels):
//   "hf-sub"    — the unadapted schedule (serial K-outer loops, the
//                 framework-default path),
//   "tpp-fixed" — TPP kernels with a fixed loop order (prior work [12]),
//   "this-work" — PARLOOPER-selected loop order,
// each in fp32 and bf16. Expected shape: this-work >= tpp-fixed >= hf-sub,
// and bf16 > fp32 (the paper reports 1.22x over tpp-fixed and large bf16
// gains on AMX-class hardware).
#include "bench/bench_util.hpp"
#include "dl/bert.hpp"

using namespace plt;

namespace {

double seq_per_sec(const dl::BertConfig& cfg, int steps) {
  Xoshiro256 rng(17);
  dl::BertEncoder model(cfg, rng);
  dl::Tensor x({cfg.tokens(), cfg.hidden}), target(x);
  x.randn_uniform(rng, -1.0f, 1.0f);
  target.randn_uniform(rng, -0.5f, 0.5f);
  // Warmup.
  model.training_step(x.data(), target.data(), 1e-4f, rng);
  WallTimer t;
  for (int i = 0; i < steps; ++i) {
    model.training_step(x.data(), target.data(), 1e-4f, rng);
  }
  return static_cast<double>(steps) * static_cast<double>(cfg.batch) /
         t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  dl::BertConfig base = full ? dl::BertConfig::large_scaled()
                             : [] {
                                 dl::BertConfig c;
                                 c.hidden = 128;
                                 c.heads = 4;
                                 c.intermediate = 512;
                                 c.layers = 2;
                                 c.seq_len = 64;
                                 return c;
                               }();
  const int steps = full ? 4 : 3;

  bench::print_header("Fig. 9 — BERT fine-tuning throughput (sequences/sec)");
  std::printf("%-12s %-6s %14s\n", "stack", "dtype", "seq/sec");
  bench::JsonReporter json("fig9_bert_training");

  struct Tier {
    const char* name;
    const char* spec;
  };
  for (const Tier& tier : {Tier{"hf-sub", "abc"}, Tier{"tpp-fixed", "aBC"},
                           Tier{"this-work", "BCa"}}) {
    for (DType dt : {DType::F32, DType::BF16}) {
      dl::BertConfig cfg = base;
      cfg.loop_spec = tier.spec;
      cfg.dtype = dt;
      const double sps = seq_per_sec(cfg, steps);
      std::printf("%-12s %-6s %14.2f\n", tier.name,
                  dt == DType::F32 ? "fp32" : "bf16", sps);
      json.add_value(std::string(tier.name) + "_" +
                         (dt == DType::F32 ? "fp32" : "bf16"),
                     sps, "seq_per_sec");
    }
  }
  std::printf("\nexpected shape: this-work >= tpp-fixed >= hf-sub (paper: "
              "1.22x over the fixed-loop TPP stack, 3.3x over IPEX).\n");
  return 0;
}
