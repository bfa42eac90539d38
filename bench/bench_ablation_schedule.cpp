// Ablation: the paper's loop-instantiation choices, isolated one at a time
// on a fixed GEMM — (a) loop order, (b) multi-level blocking depth,
// (c) BRGEMM k_step fusion, (d) dynamic vs static scheduling. Each knob is
// a pure loop_spec_string / config change with zero kernel-code change,
// which is the paper's central usability claim.
#include "bench/bench_util.hpp"

using namespace plt;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const std::int64_t n = full ? 1024 : 256;

  kernels::GemmConfig base;
  base.M = base.N = base.K = n;
  base.bm = base.bn = base.bk = 32;

  bench::print_header(
      ("Ablation — schedule knobs on GEMM " + std::to_string(n) + "^3 (fp32)")
          .c_str());
  std::printf("%-34s %12s\n", "variant", "GFLOPS");

  const auto report = [&](const char* name, const kernels::GemmConfig& cfg) {
    std::printf("%-34s %12.2f\n", name, bench::run_gemm(cfg, 1, 2).gflops);
  };

  // (a) loop order.
  for (const char* spec : {"abc", "BCa", "aBC", "Cba"}) {
    kernels::GemmConfig cfg = base;
    cfg.loop_spec = spec;
    report((std::string("order ") + spec).c_str(), cfg);
  }

  // (b) blocking depth on the M/N loops.
  {
    kernels::GemmConfig cfg = base;
    cfg.loop_spec = "BCabc";
    cfg.m_blocking = {n / 64};
    cfg.n_blocking = {n / 64};
    report("blocked-once (bcaBC-style)", cfg);
  }

  // (c) BRGEMM k_step fusion.
  for (std::int64_t ks : {1, 2, 4}) {
    if ((n / 32) % ks != 0) continue;
    kernels::GemmConfig cfg = base;
    cfg.k_step = ks;
    report((std::string("k_step=") + std::to_string(ks)).c_str(), cfg);
  }

  // (d) scheduling policy.
  {
    kernels::GemmConfig cfg = base;
    cfg.loop_spec = "BCa @ schedule(dynamic,1)";
    report("dynamic self-scheduling", cfg);
  }
  return 0;
}
