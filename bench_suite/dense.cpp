// dense_kernels: the paper's kernels at fixed shapes, in process, on the full
// pool team. tpp, parlooper and kernels do all the work; serving and net do
// none, so a microkernel, blocking or loop-order change shows here while a
// scheduler or wire change must read flat.
//
// The shapes take turns in equal slices over the whole window and every call
// is timed. The operation is one kernel call; latency is the geomean
// over shapes of the per-shape median (and p90) call time, throughput the
// Gflop executed per second of calls.
#include <cmath>
#include <cstdio>
#include <cstring>

#include "baselines/ref_conv.hpp"
#include "baselines/ref_gemm.hpp"
#include "bench/bench_util.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "kernels/conv_kernel.hpp"
#include "kernels/gemm_kernel.hpp"
#include "kernels/mlp_kernel.hpp"
#include "perfmodel/contraction_model.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace plt::suite {

namespace {

// Shape names, in window order; the per-layer metrics are keyed by them.
const char* const kShapes[] = {"gemm512_fp32",  "gemm512_bf16",
                               "gemm2048_fp32", "mlp8x128_n128",
                               "mlp2x1024_n512", "conv3x3_64_56"};

std::vector<float> random_vector(std::size_t n, Xoshiro256& rng, float lo,
                                 float hi) {
  std::vector<float> v(n);
  fill_uniform(v.data(), n, rng, lo, hi);
  return v;
}

class DenseOp {
 public:
  virtual ~DenseOp() = default;
  virtual void run() = 0;
  // Flat output of the last run().
  virtual std::vector<float> output() const = 0;
  // The same output computed by src/baselines from the flat inputs.
  virtual std::vector<float> reference() const = 0;

  const char* name = "";  // one of kShapes: outlives the op, spans keep it
  DType dtype = DType::F32;
  double flops = 0.0;
  double bytes = 0.0;  // computed operand bytes: inputs read, output r+w
  bool is_gemm = false;
  perfmodel::GemmModelProblem model;
};

class GemmOp final : public DenseOp {
 public:
  GemmOp(const char* n, std::int64_t size, DType dt, Xoshiro256& rng)
      : kernel_(config(size, dt)),
        a_flat_(random_vector(static_cast<std::size_t>(size * size), rng, -0.5f, 0.5f)),
        b_flat_(random_vector(a_flat_.size(), rng, -0.5f, 0.5f)),
        a_(kernel_.a_elems() * dtype_size(dt)),
        b_(kernel_.b_elems() * dtype_size(dt)),
        c_(kernel_.c_elems() * dtype_size(dt)) {
    name = n;
    dtype = dt;
    flops = kernel_.flops();
    bytes = 4.0 * static_cast<double>(size * size) * dtype_size(dt);
    is_gemm = true;
    model.M = model.N = model.K = size;
    model.bf16 = dt == DType::BF16;
    kernel_.pack_a(a_flat_.data(), a_.data());
    kernel_.pack_b(b_flat_.data(), b_.data());
  }

  void run() override { kernel_.run(a_.data(), b_.data(), c_.data()); }

  std::vector<float> output() const override {
    std::vector<float> out(kernel_.c_elems());
    kernel_.unpack_c(c_.data(), out.data());
    return out;
  }

  std::vector<float> reference() const override {
    const std::int64_t n = kernel_.config().M;
    std::vector<float> ref(static_cast<std::size_t>(n * n));
    if (dtype == DType::F32) {
      baselines::fixed_blocked_gemm(a_flat_.data(), b_flat_.data(), ref.data(),
                                    n, n, n);
    } else {
      std::vector<bf16> a(a_flat_.size()), b(b_flat_.size());
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = bf16(a_flat_[i]);
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = bf16(b_flat_[i]);
      baselines::fixed_blocked_gemm_bf16(a.data(), b.data(), ref.data(), n, n,
                                         n);
    }
    return ref;
  }

 private:
  static kernels::GemmConfig config(std::int64_t size, DType dt) {
    kernels::GemmConfig c;
    c.M = c.N = c.K = size;
    c.dtype = dt;
    return c;
  }

  kernels::GemmKernel kernel_;
  std::vector<float> a_flat_, b_flat_;
  AlignedBuffer<std::uint8_t> a_, b_, c_;
};

class MlpOp final : public DenseOp {
 public:
  MlpOp(const char* n, std::int64_t width, std::int64_t layers,
        std::int64_t batch, Xoshiro256& rng)
      : mlp_(config(width, layers, batch)) {
    name = n;
    flops = mlp_.flops();
    for (std::int64_t l = 0; l < layers; ++l) {
      const kernels::GemmKernel& g = mlp_.layer(l);
      w_flat_.push_back(random_vector(
          static_cast<std::size_t>(width * width), rng, -0.05f, 0.05f));
      bias_.push_back(random_vector(static_cast<std::size_t>(width), rng,
                                    -0.01f, 0.01f));
      w_.emplace_back(g.a_elems() * 4);
      g.pack_a(w_flat_.back().data(), w_.back().data());
      bytes += 4.0 * static_cast<double>(width * width + 3 * width * batch);
    }
    for (auto& w : w_) w_ptrs_.push_back(w.data());
    for (auto& b : bias_) b_ptrs_.push_back(b.data());
    const kernels::GemmKernel& first = mlp_.layer(0);
    in_flat_ = random_vector(first.b_elems(), rng, -1.0f, 1.0f);
    in_ = AlignedBuffer<std::uint8_t>(first.b_elems() * 4);
    first.pack_b(in_flat_.data(), in_.data());
    out_ = AlignedBuffer<std::uint8_t>(mlp_.layer(layers - 1).c_elems() * 4);
  }

  void run() override { mlp_.run(in_.data(), w_ptrs_, b_ptrs_, out_.data()); }

  std::vector<float> output() const override {
    const kernels::GemmKernel& last = mlp_.layer(mlp_.num_layers() - 1);
    std::vector<float> out(last.c_elems());
    last.unpack_c(out_.data(), out.data());
    return out;
  }

  // Layer by layer: y = relu(W x + bias), flat column-major.
  std::vector<float> reference() const override {
    const std::int64_t F = mlp_.config().sizes[0], N = mlp_.config().N;
    std::vector<float> x = in_flat_, y(static_cast<std::size_t>(F * N));
    for (std::size_t l = 0; l < w_flat_.size(); ++l) {
      baselines::fixed_blocked_gemm(w_flat_[l].data(), x.data(), y.data(), F,
                                    N, F);
      for (std::int64_t j = 0; j < N; ++j)
        for (std::int64_t i = 0; i < F; ++i) {
          float& v = y[static_cast<std::size_t>(i + j * F)];
          v = std::max(0.0f, v + bias_[l][static_cast<std::size_t>(i)]);
        }
      std::swap(x, y);
    }
    return x;
  }

 private:
  static kernels::MlpConfig config(std::int64_t width, std::int64_t layers,
                                   std::int64_t batch) {
    kernels::MlpConfig c;
    c.sizes.assign(static_cast<std::size_t>(layers) + 1, width);
    c.N = batch;
    c.act = kernels::Activation::kRelu;
    return c;
  }

  kernels::MlpKernel mlp_;
  std::vector<std::vector<float>> w_flat_, bias_;
  std::vector<AlignedBuffer<std::uint8_t>> w_;
  std::vector<const void*> w_ptrs_;
  std::vector<const float*> b_ptrs_;
  std::vector<float> in_flat_;
  AlignedBuffer<std::uint8_t> in_, out_;
};

class ConvOp final : public DenseOp {
 public:
  ConvOp(const char* n, Xoshiro256& rng) : conv_(config()) {
    const kernels::ConvConfig& c = conv_.config();
    name = n;
    flops = conv_.flops();
    shape_ = baselines::ConvShape{c.N, c.C, c.K, c.H, c.W, c.R, c.S,
                                  c.stride_h, c.stride_w, c.pad_h, c.pad_w};
    in_flat_ = random_vector(static_cast<std::size_t>(c.N * c.C * c.H * c.W),
                             rng, -0.5f, 0.5f);
    w_flat_ = random_vector(static_cast<std::size_t>(c.K * c.C * c.R * c.S),
                            rng, -0.1f, 0.1f);
    bytes = 4.0 * static_cast<double>(in_flat_.size() + w_flat_.size() +
                                      2 * c.N * c.K * c.P() * c.Q());
    in_ = AlignedBuffer<std::uint8_t>(conv_.input_elems() * 4);
    w_ = AlignedBuffer<std::uint8_t>(conv_.weight_elems() * 4);
    out_ = AlignedBuffer<std::uint8_t>(conv_.output_elems() * 4);
    conv_.pack_input(in_flat_.data(), in_.data());
    conv_.pack_weights(w_flat_.data(), w_.data());
  }

  void run() override { conv_.run(in_.data(), w_.data(), out_.data()); }

  std::vector<float> output() const override {
    std::vector<float> out(static_cast<std::size_t>(
        shape_.N * shape_.K * shape_.P() * shape_.Q()));
    conv_.unpack_output(out_.data(), out.data());
    return out;
  }

  std::vector<float> reference() const override {
    std::vector<float> ref(static_cast<std::size_t>(
        shape_.N * shape_.K * shape_.P() * shape_.Q()));
    baselines::naive_conv(shape_, in_flat_.data(), w_flat_.data(), ref.data());
    return ref;
  }

 private:
  // ResNet-50's 3x3 64->64 convolution at 56x56, one image.
  static kernels::ConvConfig config() {
    kernels::ConvConfig c;
    c.N = 1;
    c.C = c.K = 64;
    c.H = c.W = 56;
    c.pad_h = c.pad_w = 1;
    return c;
  }

  kernels::ConvKernel conv_;
  baselines::ConvShape shape_;
  std::vector<float> in_flat_, w_flat_;
  AlignedBuffer<std::uint8_t> in_, w_, out_;
};

class DenseKernels final : public Workload {
 public:
  explicit DenseKernels(const Options& o) : seed_(o.seed) {}

  void setup() override {
    Xoshiro256 rng(seed_);
    // GEMM 512^3 operands stay within the 8 MB of aggregate L2 of a 4-core
    // host; 2048^3 (48 MB) spills it. The MLPs: many small layers (today far
    // below the GEMM rate) and two large ones.
    ops_.push_back(std::make_unique<GemmOp>(kShapes[0], 512, DType::F32, rng));
    ops_.push_back(std::make_unique<GemmOp>(kShapes[1], 512, DType::BF16, rng));
    ops_.push_back(std::make_unique<GemmOp>(kShapes[2], 2048, DType::F32, rng));
    ops_.push_back(std::make_unique<MlpOp>(kShapes[3], 128, 8, 128, rng));
    ops_.push_back(std::make_unique<MlpOp>(kShapes[4], 1024, 2, 512, rng));
    ops_.push_back(std::make_unique<ConvOp>(kShapes[5], rng));
    for (auto& op : ops_) op->run();  // plans, kernel-cache entries, pages
  }

  void teardown() override { ops_.clear(); }

  Window measure(double seconds) override {
    // Round-robin: every round runs each shape for an equal slice, so each
    // shape's samples spread over the whole window and all shapes see the
    // same host conditions (a shared host's speed drifts within seconds).
    const std::size_t shapes = ops_.size();
    const int rounds = std::max(4, static_cast<int>(seconds / 1.5));
    const auto slice_ns = static_cast<std::uint64_t>(
        seconds * 1e9 / static_cast<double>(rounds * shapes));
    Window w;
    std::vector<std::vector<double>> ms(shapes);
    const std::uint64_t t_window = trace::now_ns();
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < shapes; ++i) {
        DenseOp& op = *ops_[i];
        const std::uint64_t end = trace::now_ns() + slice_ns;
        std::uint64_t prev_end = trace::now_ns();
        do {
          trace::Span call("dense.call", "op");
          const std::uint64_t t0 = trace::now_ns();
          {
            trace::Span exec(op.name, "exec");
            op.run();
          }
          const std::uint64_t t1 = trace::now_ns();
          ms[i].push_back(static_cast<double>(t1 - t0) * 1e-6);
          w.late_us.push_back(static_cast<double>(t0 - prev_end) * 1e-3);
          prev_end = t1;
        } while (prev_end < end);
      }
    }
    w.seconds = static_cast<double>(trace::now_ns() - t_window) * 1e-9;

    std::vector<double> p50, p90, p99;
    double flops = 0.0, busy_s = 0.0;
    last_ms_.assign(shapes, 0.0);
    for (std::size_t i = 0; i < shapes; ++i) {
      // Deterministic kernels: every window must reproduce the first
      // output bit for bit (verify() checks that one against a reference).
      std::vector<float> out = ops_[i]->output();
      if (first_.size() < shapes) {
        first_.push_back(std::move(out));
      } else if (std::memcmp(out.data(), first_[i].data(),
                             out.size() * sizeof(float)) != 0) {
        ++mismatches_;
        ++w.failed;
      }
      for (double m : ms[i]) busy_s += m * 1e-3;
      flops += ops_[i]->flops * static_cast<double>(ms[i].size());
      w.attempted += ms[i].size();
      last_ms_[i] = percentile(ms[i], 0.5).value;
      p50.push_back(last_ms_[i]);
      p90.push_back(percentile(ms[i], 0.9).value);
      p99.push_back(percentile(ms[i], 0.99).value);
      std::printf("  %-16s %8.4f ms/call p50 %8.4f p90  %9.2f GF/s  "
                  "(n=%zu)\n",
                  ops_[i]->name, p50.back(), p90.back(),
                  ops_[i]->flops / (last_ms_[i] * 1e6), ms[i].size());
    }
    w.p50 = Percentile{bench::geomean(p50), static_cast<std::size_t>(w.attempted)};
    w.p90 = Percentile{bench::geomean(p90), static_cast<std::size_t>(w.attempted)};
    w.p99 = Percentile{bench::geomean(p99), static_cast<std::size_t>(w.attempted)};
    w.throughput = flops * 1e-9 / busy_s;
    w.throughput_n = static_cast<std::size_t>(w.attempted);
    w.ok = w.attempted - w.failed;
    return w;
  }

  std::uint64_t verify() override {
    std::uint64_t wrong = mismatches_;
    for (std::size_t i = 0; i < ops_.size() && i < first_.size(); ++i) {
      const std::vector<float> ref = ops_[i]->reference();
      double err = 0.0, scale = 0.0;
      for (std::size_t j = 0; j < ref.size(); ++j) {
        err = std::max(err, std::fabs(static_cast<double>(first_[i][j]) - ref[j]));
        scale = std::max(scale, std::fabs(static_cast<double>(ref[j])));
      }
      const double rel = scale > 0.0 ? err / scale : err;
      const double tol = ops_[i]->dtype == DType::BF16 ? 2e-2 : 1e-4;
      const bool ok = rel <= tol && std::isfinite(rel);
      std::printf("  check %-16s max rel error %.3g (tolerance %.0e) %s\n",
                  ops_[i]->name, rel, tol, ok ? "ok" : "WRONG");
      if (!ok) ++wrong;
    }
    return wrong;
  }

  void layer_metrics(const Roofs& roofs, Metrics* out) override {
    const int team = max_threads();
    const perfmodel::PlatformModel platform =
        perfmodel::PlatformModel::spr_like();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const DenseOp& op = *ops_[i];
      const bool bf = op.dtype == DType::BF16;
      const double gf = op.flops / (last_ms_[i] * 1e6);
      const double core_peak = bf ? roofs.b32_bf16_gflops : roofs.b32_fp32_gflops;
      const double roof = std::min(team * core_peak,
                                   roofs.triad_gbps * op.flops / op.bytes);
      const std::string name = op.name;
      add(out, "kernels.gflops." + name, gf, "GF/s");
      add(out, "kernels.roofline_frac." + name, gf / roof, "ratio");
      if (!op.is_gemm) continue;
      // The model predicts flops per cycle for the platform preset; the
      // measured per-core BRGEMM rate over the preset's per-core peak gives
      // the cycles-to-seconds factor for this host.
      const perfmodel::Prediction p =
          perfmodel::model_gemm_spec(op.model, "BCa", platform, team);
      const double ghz =
          core_peak / (bf ? platform.bf16_flops_per_cycle
                          : platform.fp32_flops_per_cycle);
      add(out, "kernels.vs_model." + name, gf / (p.flops_per_cycle * ghz),
          "ratio");
    }
    add_idle_serving_metrics(out);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::unique_ptr<DenseOp>> ops_;
  std::vector<std::vector<float>> first_;  // first window's outputs
  std::vector<double> last_ms_;            // last window's median call time
  std::uint64_t mismatches_ = 0;
};

}  // namespace

void add_idle_kernel_metrics(Metrics* out) {
  for (const char* s : kShapes) {
    add(out, std::string("kernels.gflops.") + s, 0.0, "GF/s");
    add(out, std::string("kernels.roofline_frac.") + s, 0.0, "ratio");
  }
  for (int i = 0; i < 3; ++i) {
    add(out, std::string("kernels.vs_model.") + kShapes[i], 0.0, "ratio");
  }
}

std::unique_ptr<Workload> make_dense_kernels(const Options& o) {
  return std::make_unique<DenseKernels>(o);
}

}  // namespace plt::suite
