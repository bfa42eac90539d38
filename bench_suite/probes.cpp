// Isolated layer probes, run after the traced window of every workload so
// every traced run reports the same layer rates: the TPP microkernel, memory
// bandwidth, PARLOOPER dispatch, the wire codec and the dl building blocks of
// the llm_generate model. A change to one layer should move its probe and
// leave the others flat.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "dl/fc_layer.hpp"
#include "dl/layernorm.hpp"
#include "dl/llm.hpp"
#include "net/wire.hpp"
#include "serving/session.hpp"
#include "suite.hpp"
#include "trace.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"

namespace plt::suite {

namespace {

// Median ns per call of fn over `seconds`, timing batches of `inner` calls
// so the clock reads stay negligible next to the work.
template <typename Fn>
double median_call_ns(Fn&& fn, double seconds, int inner) {
  fn();  // warm caches, plans and kernel-cache entries
  std::vector<double> ns;
  const std::uint64_t end =
      trace::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t t0 = trace::now_ns();
    for (int i = 0; i < inner; ++i) fn();
    ns.push_back(static_cast<double>(trace::now_ns() - t0) / inner);
  } while (trace::now_ns() < end || ns.size() < 5);
  return percentile(std::move(ns), 0.5).value;
}

// One core, cache-resident: 16 blocks of A and B (64 KB each for fp32) in a
// single stride-based BRGEMM call, the GEMM kernel's inner call. n = 1 is the
// decode FC's shape, which issues one block per call.
double brgemm_gflops(std::int64_t n, std::int64_t brcount, DType dt,
                     double seconds) {
  const std::int64_t m = 32, k = 32;
  const bool bf = dt == DType::BF16;
  const std::int64_t a_blk = bf ? tpp::vnni2_elems(m, k) : m * k;
  const std::size_t esz = dtype_size(dt);
  tpp::BrgemmTPP brgemm(m, n, k, a_blk, n * k, 1.0f, dt, dt, dt,
                        bf ? tpp::ALayout::kVnni2 : tpp::ALayout::kFlat);
  AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(a_blk * brcount) * esz);
  AlignedBuffer<std::uint8_t> b(static_cast<std::size_t>(n * k * brcount) * esz);
  AlignedBuffer<std::uint8_t> c(static_cast<std::size_t>(m * n) * esz);
  Xoshiro256 rng(kWeightSeed);
  if (bf) {
    fill_uniform(reinterpret_cast<bf16*>(a.data()), a.size() / 2, rng, -0.01f, 0.01f);
    fill_uniform(reinterpret_cast<bf16*>(b.data()), b.size() / 2, rng, -0.01f, 0.01f);
  } else {
    fill_uniform(reinterpret_cast<float*>(a.data()), a.size() / 4, rng, -0.01f, 0.01f);
    fill_uniform(reinterpret_cast<float*>(b.data()), b.size() / 4, rng, -0.01f, 0.01f);
  }
  std::memset(c.data(), 0, c.size());
  const double ns = median_call_ns(
      [&] { brgemm(a.data(), b.data(), c.data(), brcount); }, seconds, 256);
  return brgemm.flops(brcount) / ns;
}

// STREAM triad a = b + s*c over the whole team. A bandwidth roof wants each
// array at least 4x the LLC; on hosts whose LLC is shared between tenants
// that can be gigabytes, so each array is capped at 128 MiB and both sizes
// are printed with the result.
double triad_gbps(double seconds) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t cap = std::size_t{128} << 20;
  const std::size_t want = llc > 0 ? 4 * static_cast<std::size_t>(llc) : cap;
  const std::size_t bytes = std::min(want, cap);
  const std::size_t n = bytes / sizeof(float);
  AlignedBuffer<float> a(n), b(n), c(n);
  const auto chunk = [n](int tid, int nthreads) {
    const std::size_t per = (n + static_cast<std::size_t>(nthreads) - 1) /
                            static_cast<std::size_t>(nthreads);
    const std::size_t lo = std::min(n, per * static_cast<std::size_t>(tid));
    return std::make_pair(lo, std::min(n, lo + per));
  };
  // First touch by the threads that stream the data.
  parallel_region([&](int tid, int nthreads) {
    const auto [lo, hi] = chunk(tid, nthreads);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0f;
      b[i] = 1.0f;
      c[i] = 2.0f;
    }
  });
  const double ns = median_call_ns(
      [&] {
        parallel_region([&](int tid, int nthreads) {
          const auto [lo, hi] = chunk(tid, nthreads);
          float* pa = a.data();
          const float* pb = b.data();
          const float* pc = c.data();
          for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 0.5f * pc[i];
        });
      },
      seconds, 1);
  std::printf("probe: triad arrays 3 x %zu MiB, LLC %ld MiB\n", bytes >> 20,
              llc > 0 ? llc >> 20 : -1);
  return 3.0 * static_cast<double>(n * sizeof(float)) / ns;
}

// PARLOOPER dispatch cost of the bench_util small nest under one runtime:
// median over repeated best-of-3 measurements.
double dispatch_ns(Runtime rt, int reps) {
  const Runtime saved = runtime();
  set_runtime(rt);
  std::vector<double> v;
  for (int i = 0; i < 9; ++i) v.push_back(bench::small_nest_ns_per_invocation(reps));
  set_runtime(saved);
  return percentile(std::move(v), 0.5).value;
}

void codec_probe(double seconds, Metrics* out) {
  // The wire_small MLP request: 8 tokens x 16 features, 555 bytes encoded.
  net::RequestFrame req;
  req.request_id = 1;
  req.name = "mlp";
  req.payload.assign(8 * 16, 0.5f);
  std::vector<std::uint8_t> bytes;
  const double enc = median_call_ns(
      [&] {
        bytes.clear();
        net::encode_request(req, &bytes);
      },
      seconds, 256);
  net::RequestFrame decoded;
  std::size_t consumed = 0;
  std::string error;
  const double dec = median_call_ns(
      [&] {
        net::decode_request(bytes.data(), bytes.size(), &decoded, &consumed,
                            &error);
      },
      seconds, 256);
  add(out, "net.encode_ns", enc, "ns");
  add(out, "net.decode_ns", dec, "ns");
}

// The llm_generate model's pieces, built standalone with its config: one
// decoder layer, its three FC shapes at 1 and 128 tokens, the decode
// layernorm, and one session's decode step (for the step overhead).
void dl_probe(double seconds, Metrics* out) {
  dl::LlmConfig cfg = dl::LlmConfig::gptj_scaled();
  const std::int64_t prompt = kLlmPrompt, gen = kLlmGen, H = cfg.hidden;
  cfg.max_seq = prompt + gen;
  Xoshiro256 rng(kWeightSeed);

  struct FcShape {
    const char* name;
    std::int64_t in, out;
    dl::FcActivation act;
  };
  for (const FcShape& s : {FcShape{"qkvo", H, H, dl::FcActivation::kNone},
                           FcShape{"up", H, cfg.ffn, dl::FcActivation::kGelu},
                           FcShape{"down", cfg.ffn, H, dl::FcActivation::kNone}}) {
    dl::FcConfig fc;
    fc.in_features = s.in;
    fc.out_features = s.out;
    fc.tokens = cfg.max_seq;
    fc.bm = cfg.bm;
    fc.bn = cfg.bn;
    fc.bk = cfg.bk;
    fc.act = s.act;
    dl::FcLayer layer(fc, rng);
    std::vector<float> in(static_cast<std::size_t>(prompt * s.in));
    std::vector<float> o(static_cast<std::size_t>(prompt * s.out));
    fill_uniform(in.data(), in.size(), rng, -1.0f, 1.0f);
    const double t1 = median_call_ns(
        [&] { layer.forward_tokens(in.data(), 1, o.data()); }, seconds, 16);
    const double t128 = median_call_ns(
        [&] { layer.forward_tokens(in.data(), prompt, o.data()); }, seconds, 1);
    const std::string n = s.name;
    add(out, "dl.fc_t1_us." + n, t1 * 1e-3, "us");
    // Computed weight bytes (fp32) over time: decode streams every weight.
    add(out, "dl.fc_t1_gbps." + n,
        static_cast<double>(s.in * s.out * 4) / t1, "GB/s");
    add(out, "dl.fc_t128_gflops." + n,
        2.0 * static_cast<double>(prompt * s.in * s.out) / t128, "GF/s");
  }

  dl::LayerNorm ln(1, H);
  std::vector<float> x(static_cast<std::size_t>(prompt * H));
  std::vector<float> y(x.size());
  fill_uniform(x.data(), x.size(), rng, -1.0f, 1.0f);
  add(out, "dl.layernorm_t1_us",
      median_call_ns([&] { ln.forward(x.data(), y.data()); }, seconds, 64) *
          1e-3,
      "us");

  dl::DecoderLayer layer(cfg, rng);
  const double prefill = median_call_ns(
      [&] { layer.prefill(x.data(), prompt, y.data()); }, seconds, 1);
  std::int64_t pos = prompt;
  const double decode = median_call_ns(
      [&] {
        layer.decode_one(x.data(), pos, y.data());
        pos = pos + 1 < cfg.max_seq ? pos + 1 : prompt;
      },
      seconds, 8);
  add(out, "dl.prefill_layer_ms", prefill * 1e-6, "ms");
  add(out, "dl.decode_layer_us", decode * 1e-3, "us");

  // Step overhead: one session decode step minus its layers' decode calls.
  auto session = serving::make_llm_session("probe", cfg, prompt, gen, 1,
                                           kWeightSeed);
  std::vector<float> o(static_cast<std::size_t>(gen * H));
  std::vector<double> itl;
  const std::uint64_t end =
      trace::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    session->run_step(0, x.data(), o.data(), 0, 1);
    for (int s = 1; s < gen; ++s) {
      const std::uint64_t t0 = trace::now_ns();
      session->run_step(0, x.data(), o.data(), s, 1);
      itl.push_back(static_cast<double>(trace::now_ns() - t0) * 1e-3);
    }
  } while (trace::now_ns() < end);
  add(out, "dl.step_overhead_us",
      percentile(std::move(itl), 0.5).value -
          static_cast<double>(cfg.layers) * decode * 1e-3,
      "us");
}

}  // namespace

Roofs run_probes(double seconds, Metrics* out) {
  Roofs r;
  r.b32_fp32_gflops = brgemm_gflops(32, 16, DType::F32, seconds);
  r.b32_bf16_gflops = brgemm_gflops(32, 16, DType::BF16, seconds);
  add(out, "tpp.brgemm_gflops.b32_fp32", r.b32_fp32_gflops, "GF/s");
  add(out, "tpp.brgemm_gflops.b32_bf16", r.b32_bf16_gflops, "GF/s");
  add(out, "tpp.brgemm_gflops.n1_fp32",
      brgemm_gflops(1, 1, DType::F32, seconds), "GF/s");
  r.triad_gbps = triad_gbps(seconds * 4);
  add(out, "mem.triad_gbps", r.triad_gbps, "GB/s");
  add(out, "parlooper.dispatch_ns.pool", dispatch_ns(Runtime::kPool, 2000),
      "ns");
  add(out, "parlooper.dispatch_ns.serial",
      dispatch_ns(Runtime::kSerial, 2000), "ns");
  codec_probe(seconds, out);
  dl_probe(seconds, out);
  return r;
}

}  // namespace plt::suite
