// End-to-end BERT-style encoder inference on synthetic tokens: embeddings
// (lookup + layernorm) followed by a stack of PARLOOPER/TPP encoder layers —
// the workload family of Section IV-A, runnable in both fp32 and bf16.
//
//   ./bert_inference [fp32|bf16]
#include <cstdio>
#include <cstring>

#include "common/timer.hpp"
#include "dl/bert.hpp"

using namespace plt;

int main(int argc, char** argv) {
  dl::BertConfig cfg = dl::BertConfig::base_scaled();
  if (argc > 1 && std::strcmp(argv[1], "bf16") == 0) cfg.dtype = DType::BF16;

  Xoshiro256 rng(7);
  dl::BertEmbeddings embeddings(cfg, /*vocab=*/8192, rng);
  dl::BertEncoder encoder(cfg, rng);

  // Synthetic token stream: stands in for a SQuAD batch (the dataset is not
  // bundled; throughput does not depend on the token values).
  std::vector<std::int32_t> tokens(static_cast<std::size_t>(cfg.tokens()));
  for (auto& t : tokens) t = static_cast<std::int32_t>(rng.bounded(8192));

  dl::Tensor x({cfg.tokens(), cfg.hidden}), y(x);
  embeddings.forward(tokens.data(), x.data(), rng);

  encoder.forward(x.data(), y.data(), rng);  // warmup
  const int iters = 5;
  WallTimer t;
  for (int i = 0; i < iters; ++i) encoder.forward(x.data(), y.data(), rng);
  const double s = t.seconds() / iters;

  std::printf("BERT encoder (%s): hidden=%ld heads=%ld layers=%ld seq=%ld\n",
              cfg.dtype == DType::BF16 ? "bf16" : "fp32",
              static_cast<long>(cfg.hidden), static_cast<long>(cfg.heads),
              static_cast<long>(cfg.layers), static_cast<long>(cfg.seq_len));
  std::printf("latency %.2f ms  |  %.2f sequences/sec  |  %.2f GFLOPS\n",
              s * 1e3, cfg.batch / s, encoder.forward_flops() / s * 1e-9);
  std::printf("output[0..3]: %.4f %.4f %.4f %.4f\n", y[0], y[1], y[2], y[3]);
  return 0;
}
