// Table II: ResNet-50 training throughput (images/sec). The measured
// quantity is the forward pass through the full PARLOOPER/TPP ResNet-50;
// training throughput applies the canonical fwd:bwd cost ratio of ~1:2 for
// convolutional nets (dgrad + wgrad each cost about one forward); the
// backward pass itself is not run. Both fp32 and bf16 paths are reported;
// the paper compares SPR vs GVT3 and lands within 4% of the vendor stack.
// BENCH_tab2_resnet_training.json rows carry a _p<N> suffix (N = active pool
// partition count), so the CI matrix legs (1 vs 2 partitions) land in
// distinct rows and the partition-scaling trajectory is tracked per PR.
#include "bench/bench_util.hpp"
#include "dl/resnet.hpp"

using namespace plt;

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  dl::ResNetConfig cfg;
  cfg.N = 1;
  cfg.image = full ? 224 : 64;
  cfg.channel_scale = full ? 1 : 4;

  bench::JsonReporter json("tab2_resnet_training");
  const std::string psuf = bench::partition_suffix();
  bench::print_header("Table II — ResNet-50 training throughput (images/sec)");
  std::printf("%-8s %14s %14s %20s\n", "dtype", "fwd img/s", "train img/s",
              "(fwd / 3 — fwd:bwd=1:2)");
  for (DType dt : {DType::F32, DType::BF16}) {
    cfg.dtype = dt;
    Xoshiro256 rng(51);
    dl::ResNet50 model(cfg, rng);
    std::vector<float> input(static_cast<std::size_t>(cfg.N * 3 * cfg.image *
                                                      cfg.image));
    fill_uniform(input.data(), input.size(), rng, -1.0f, 1.0f);
    std::vector<float> logits(static_cast<std::size_t>(cfg.N) * 1000);
    model.forward(input.data(), logits.data());  // warmup
    const int iters = 2;
    WallTimer t;
    for (int i = 0; i < iters; ++i) model.forward(input.data(), logits.data());
    const double fwd_ips = static_cast<double>(cfg.N * iters) / t.seconds();
    std::printf("%-8s %14.2f %14.2f   (model flops %.2f GF/img)\n",
                dt == DType::F32 ? "fp32" : "bf16", fwd_ips, fwd_ips / 3.0,
                model.forward_flops() / 1e9 / cfg.N);
    const std::string dts = dt == DType::F32 ? "fp32" : "bf16";
    json.add_value("tab2_resnet_fwd_" + dts + psuf, fwd_ips, "img_per_sec");
    json.add_value("tab2_resnet_train_" + dts + psuf, fwd_ips / 3.0,
                   "img_per_sec");
  }
  bench::report_pool_stats(json);
  std::printf("\nexpected shape: bf16 >= fp32 when bf16 hardware exists; the "
              "paper's SPR/GVT3 gap (1.76x) comes from the compute-peak "
              "difference the perf model captures.\n");
  return 0;
}
