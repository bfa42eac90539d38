// Shared helpers for the paper-figure benches: CLI scaling, operand setup
// and table printing. Every bench prints the same rows/series as its paper
// figure; pass --full for paper-scale shapes (defaults are scaled so the
// whole suite runs in minutes on one core).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cpu_features.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "kernels/gemm_kernel.hpp"
#include "parlooper/threaded_loop.hpp"

namespace plt::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Machine-readable perf tracking: every bench appends records and writes
// BENCH_<bench>.json on destruction (into $PLT_BENCH_JSON_DIR or the CWD),
// so the perf trajectory across PRs is diffable by tooling instead of being
// buried in stdout tables.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  // gflops <= 0 or ns_per_invocation <= 0 are recorded as null (a metric
  // that does not apply to this row).
  void add(const std::string& name, double gflops_v, double ns_per_invocation,
           const std::string& runtime_label = "") {
    Record r;
    r.name = name;
    r.gflops = gflops_v;
    r.ns_per_invocation = ns_per_invocation;
    r.runtime = runtime_label.empty() ? runtime_name(runtime()) : runtime_label;
    records_.push_back(std::move(r));
  }

  // Generic metric row for quantities that are neither GFLOPS nor
  // ns/invocation (requests/sec, sequences/sec, queue depth, ...); the unit
  // string names what `value` measures.
  void add_value(const std::string& name, double value,
                 const std::string& unit,
                 const std::string& runtime_label = "") {
    Record r;
    r.name = name;
    r.value = value;
    r.unit = unit;
    r.runtime = runtime_label.empty() ? runtime_name(runtime()) : runtime_label;
    records_.push_back(std::move(r));
  }

  ~JsonReporter() { write(); }

  void write() const {
    const std::string dir = common::env_str("PLT_BENCH_JSON_DIR", "");
    const std::string path =
        (dir.empty() ? "" : dir + "/") + "BENCH_" + bench_name_ + ".json";
    std::ofstream os(path);
    if (!os) return;
    os << "{\n  \"bench\": \"" << bench_name_ << "\",\n"
       << "  \"threads\": " << max_threads() << ",\n"
       << "  \"isa\": \"" << isa_name(effective_isa()) << "\",\n"
       << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << "    {\"name\": \"" << r.name << "\", \"runtime\": \""
         << r.runtime << "\", \"gflops\": ";
      if (r.gflops > 0) os << r.gflops; else os << "null";
      os << ", \"ns_per_invocation\": ";
      if (r.ns_per_invocation > 0) os << r.ns_per_invocation; else os << "null";
      if (!r.unit.empty()) {
        os << ", \"value\": " << r.value << ", \"unit\": \"" << r.unit << "\"";
      }
      os << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("[bench] wrote %s (%zu records)\n", path.c_str(),
                records_.size());
  }

 private:
  struct Record {
    std::string name;
    double gflops = 0.0;
    double ns_per_invocation = 0.0;
    double value = 0.0;
    std::string unit;  // non-empty => emit the generic value field
    std::string runtime;
  };
  std::string bench_name_;
  std::vector<Record> records_;
};

// Row-name suffix identifying the active pool partition count ("_p1",
// "_p2", ...), so the same bench's JSON rows from different CI matrix legs
// stay distinct and the partition-scaling trajectory is trackable.
inline std::string partition_suffix() {
  return "_p" + std::to_string(pool_partitions());
}

// Records a ThreadPool::stats() snapshot of the process-wide pool into the
// bench JSON: partition layout, whole-team regions, serial degradations
// (nested nests and lost dispatch races — by design the common case inside
// batched serving), completed barrier episodes, and per-partition run_on /
// steal counters. No-op under non-pool runtimes (there is no pool to read).
inline void report_pool_stats(JsonReporter& json) {
  if (runtime() != Runtime::kPool) return;
  ThreadPool& pool = ThreadPool::instance();
  const ThreadPool::Stats s = pool.stats();
  json.add_value("pool_partitions", pool.partitions(), "count", "pool");
  json.add_value("pool_team_regions", static_cast<double>(s.team_regions),
                 "count", "pool");
  json.add_value("pool_serial_degradations",
                 static_cast<double>(s.serial_degradations), "count", "pool");
  json.add_value("pool_barrier_epochs",
                 static_cast<double>(s.barrier_epochs), "count", "pool");
  for (std::size_t p = 0; p < s.partition.size(); ++p) {
    const std::string prefix = "pool_partition" + std::to_string(p);
    json.add_value(prefix + "_regions",
                   static_cast<double>(s.partition[p].regions), "count",
                   "pool");
    json.add_value(prefix + "_steals",
                   static_cast<double>(s.partition[p].steals), "count",
                   "pool");
  }
}

// Per-invocation dispatch overhead of a small PARLOOPER nest (the runtime's
// fixed cost: region entry, schedule lookup, body walk) in nanoseconds. The
// tiny body keeps the work negligible, so the number isolates what the
// paper says must be near zero (Section II-B).
inline double small_nest_ns_per_invocation(int repeats = 20000) {
  std::vector<parlooper::LoopSpecs> loops = {
      parlooper::LoopSpecs{0, 4, 1, {}}, parlooper::LoopSpecs{0, 4, 1, {}}};
  parlooper::LoopNest nest(loops, "Ab");
  // One cache-line-padded sink per member: members write concurrently, so a
  // shared one would be a data race (and false sharing in the timing).
  struct alignas(64) Sink {
    volatile std::int64_t v = 0;
  };
  std::vector<Sink> sinks(static_cast<std::size_t>(max_threads()));
  // Each member finds its slot once per invocation (init), not per body.
  static thread_local Sink* slot = nullptr;
  const parlooper::VoidFn init = [&] {
    slot = &sinks[static_cast<std::size_t>(thread_id())];
  };
  // Prebuilt functions so the measurement excludes std::function
  // construction.
  const parlooper::BodyFn body = [](const std::int64_t* ind) {
    slot->v += ind[0] + ind[1];
  };
  const double s = time_best_seconds(
      [&] {
        for (int i = 0; i < repeats; ++i) nest(body, init);
      },
      1, 3);
  return s / repeats * 1e9;
}

// Measures small-nest dispatch overhead under every built runtime, prints a
// table, records overhead_small_nest_<runtime> JSON rows, and returns the
// omp/pool ratio (0 when OpenMP is not built — an "omp" row would really be
// the serial fallback, which would poison the tracked history and the CI
// gate). Shared by bench_fig2_gemm and bench_micro_tpp so the rows the gate
// reads come from one place.
inline double report_dispatch_overhead(JsonReporter& json, int repeats) {
  const Runtime saved = runtime();
  std::vector<Runtime> runtimes = {Runtime::kSerial, Runtime::kPool};
#if defined(PLT_HAVE_OPENMP)
  runtimes.insert(runtimes.begin() + 1, Runtime::kOpenMP);
#else
  std::printf("(OpenMP not built: omp overhead row skipped)\n");
#endif
  double ns_omp = 0.0, ns_pool = 0.0;
  for (Runtime rt : runtimes) {
    set_runtime(rt);
    const double ns = small_nest_ns_per_invocation(repeats);
    set_runtime(saved);
    std::printf("%-8s %10.1f ns/invocation\n", runtime_name(rt), ns);
    json.add(std::string("overhead_small_nest_") + runtime_name(rt), 0.0, ns,
             runtime_name(rt));
    if (rt == Runtime::kOpenMP) ns_omp = ns;
    if (rt == Runtime::kPool) ns_pool = ns;
  }
  if (ns_pool > 0.0 && ns_omp > 0.0) {
    std::printf("pool vs omp per-invocation overhead: %.2fx lower\n",
                ns_omp / ns_pool);
    return ns_omp / ns_pool;
  }
  return 0.0;
}

// Prepares packed operands and times a GEMM kernel; returns GFLOPS.
struct GemmRun {
  double gflops = 0.0;
  double seconds = 0.0;
};

inline GemmRun run_gemm(const kernels::GemmConfig& cfg, int warmup = 1,
                        int iters = 3) {
  kernels::GemmKernel kernel(cfg);
  AlignedBuffer<std::uint8_t> a(kernel.a_elems() * dtype_size(cfg.dtype));
  AlignedBuffer<std::uint8_t> b(kernel.b_elems() * dtype_size(cfg.dtype));
  AlignedBuffer<std::uint8_t> c(kernel.c_elems() * dtype_size(cfg.dtype));
  Xoshiro256 rng(11);
  std::vector<float> flat(std::max(kernel.a_elems(), kernel.b_elems()));
  fill_uniform(flat.data(), flat.size(), rng, -0.5f, 0.5f);
  kernel.pack_a(flat.data(), a.data());
  kernel.pack_b(flat.data(), b.data());
  GemmRun r;
  r.seconds = time_best_seconds(
      [&] { kernel.run(a.data(), b.data(), c.data()); }, warmup, iters);
  r.gflops = gflops(kernel.flops(), r.seconds);
  return r;
}

inline double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace plt::bench
