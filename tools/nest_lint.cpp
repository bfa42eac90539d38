// nest_lint: sweeps the static schedule verifier (src/analysis/) over every
// loop-nest plan the model catalogue registers, for the canonical team sizes
// {1, 2, 4, 8}, and prints a conformance table. Exit status 0 means every
// plan proved coverage and race-freedom (against its attached access maps).
//
//   nest_lint              full catalogue sweep
//   nest_lint --self-test  mutation self-test (verifier must flag all three
//                          corruption kinds on a known-good schedule)
//
// The catalogue instantiates every model family at CI-friendly sizes: the
// kernels register plans (with access maps) by construction alone; the
// serving sessions additionally run their construction-time warmup, which
// registers the dl layers' real per-token-count plans. The sweep then walks
// the process-wide plan cache, so anything newly registered is linted
// without touching this file's sweep loop.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "dl/bert.hpp"
#include "dl/llm.hpp"
#include "dl/sparse_fc.hpp"
#include "kernels/conv_kernel.hpp"
#include "kernels/gemm_kernel.hpp"
#include "kernels/spmm_kernel.hpp"
#include "parlooper/threaded_loop.hpp"
#include "serving/session.hpp"

namespace {

using plt::analysis::VerifyReport;

void register_catalogue() {
  // GEMM, over the spec grammar: plain/permuted orders, serial, blocked
  // re-orders, dynamic schedule, an explicit thread grid, and a two-phase
  // barrier spec.
  plt::kernels::GemmConfig g;
  g.M = g.N = g.K = 64;
  g.bm = g.bn = g.bk = 16;
  g.m_blocking = {2};
  g.n_blocking = {2};
  const char* gemm_specs[] = {
      "BCa",  "aBC",   "abc",
      "Cab",  "Cba",   "CBa",
      "bBCca", "BCa @ schedule(dynamic,1)",
      "B{R:2}C{C:2}a", "aB|c",
  };
  for (const char* spec : gemm_specs) {
    g.loop_spec = spec;
    plt::kernels::GemmKernel kernel(g);
  }

  // Convolution (7-loop nest, padded strided input window).
  plt::kernels::ConvConfig c;
  c.N = 2;
  c.C = c.K = 32;
  c.H = c.W = 8;
  c.pad_h = c.pad_w = 1;
  c.bc = c.bk = 16;
  for (const char* spec :
       {"ACDebfg", "ACdebfg", "ACDebfg @ schedule(dynamic,1)"}) {
    c.loop_spec = spec;
    plt::kernels::ConvKernel kernel(c);
  }

  // Block-sparse SpMM (strided column-tile writes).
  plt::kernels::SpmmConfig s;
  s.M = s.N = s.K = 64;
  s.bm = s.bk = 8;
  s.bn = 32;
  plt::kernels::SpmmKernel spmm(s);

  // Serving sessions: construction warms every lane, registering the dl
  // layers' per-token-count plans with their access maps.
  plt::serving::MlpServeConfig mlp;
  mlp.features = 64;
  mlp.layers = 2;
  mlp.tokens = 32;
  plt::serving::make_mlp_session("lint-mlp", mlp, /*lanes=*/1, /*seed=*/7);

  plt::dl::BertConfig bert;
  bert.hidden = 64;
  bert.heads = 2;
  bert.intermediate = 128;
  bert.layers = 1;
  bert.seq_len = 32;
  plt::serving::make_bert_session("lint-bert", bert, /*lanes=*/1, /*seed=*/7);

  plt::dl::SparseFcConfig sfc;
  sfc.in_features = 64;
  sfc.out_features = 64;
  sfc.tokens = 32;
  plt::serving::make_sparse_fc_session("lint-sparse-fc", sfc, /*lanes=*/1, /*seed=*/7);

  plt::dl::LlmConfig llm;
  llm.hidden = 64;
  llm.heads = 2;
  llm.layers = 1;
  llm.ffn = 128;
  llm.vocab = 256;
  llm.max_seq = 64;
  plt::serving::make_llm_session("lint-llm", llm, /*prompt_len=*/8, /*gen_tokens=*/4,
                   /*lanes=*/1, /*seed=*/7);
}

int run_sweep() {
  register_catalogue();

  const std::vector<int>& teams = plt::analysis::default_team_sizes();

  std::printf("%-34s %5s %8s %4s", "spec", "loops", "iters", "maps");
  for (int n : teams) std::printf("  n=%-4d", n);
  std::printf("\n");

  int plans = 0, failures = 0;
  std::vector<std::string> details;
  plt::parlooper::plan_cache_for_each([&](const plt::parlooper::LoopNestPlan&
                                              plan) {
    ++plans;
    std::printf("%-34s %5d %8lld %4zu", plan.spec_string().c_str(),
                plan.num_logical(),
                static_cast<long long>(plan.total_iterations()),
                plan.access_maps().size());
    for (int n : teams) {
      const VerifyReport report = plt::analysis::verify_plan(plan, n);
      if (report.ok()) {
        std::printf("  %-6s", "OK");
      } else {
        ++failures;
        std::printf("  %-6s",
                    ("FAIL:" + std::to_string(report.issues.size())).c_str());
        details.push_back("spec '" + plan.spec_string() + "' " +
                          report.summary());
      }
    }
    std::printf("\n");
  });
  std::printf("\n%d plan(s), %d failing cell(s)\n", plans, failures);
  for (const std::string& d : details) std::printf("%s\n", d.c_str());
  return failures == 0 && plans > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) self_test = true;
    else {
      std::fprintf(stderr, "usage: %s [--self-test]\n", argv[0]);
      return 2;
    }
  }
  if (self_test) {
    const std::string err = plt::analysis::mutation_self_test();
    if (!err.empty()) {
      std::fprintf(stderr, "mutation self-test FAILED: %s\n", err.c_str());
      return 1;
    }
    std::printf("mutation self-test passed: drop-tuple, duplicate-tuple and "
                "cross-barrier-swap all detected\n");
    return 0;
  }
  return run_sweep();
}
