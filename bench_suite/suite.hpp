// Shared pieces of the bench_suite binary: options, sample statistics, the
// metric list every workload fills, and the workload interface main() drives.
// README.md says what each workload measures and why it exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace plt::suite {

// Model weights belong to the program, not to the inputs: workloads and
// probes build them from this fixed seed, and --seed varies the inputs.
inline constexpr std::uint64_t kWeightSeed = 20240527;

// llm_generate's request shape; the dl probes build the same model.
inline constexpr std::int64_t kLlmPrompt = 128;
inline constexpr int kLlmGen = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;   // measured time of one run, split over its phases
  std::string trace_path;  // non-empty: add a traced window, write the trace
};

// Nearest-rank percentile: the smallest sample with at least a fraction p of
// all samples at or below it, with the sample count it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};
Percentile percentile(std::vector<double> v, double p);

// Highest percentile (as a fraction) that still leaves at least ten samples
// above it, 1 - 10/n; 0 when there are fewer than 20 samples.
double supported_tail(std::size_t n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value; 0 for counts and ratios
};
using Metrics = std::vector<Metric>;
void add(Metrics* m, const std::string& name, double value,
         const std::string& unit, std::size_t n = 0);

// Headline numbers of one measurement window. The "operation" is the
// workload's unit of work: a kernel call, a generated token, a request.
struct Window {
  double seconds = 0.0;
  Percentile p50, p90, p99;  // operation latency, ms
  double throughput = 0.0;   // work items per second (see README)
  std::size_t throughput_n = 0;
  std::uint64_t attempted = 0;  // operations attempted
  std::uint64_t failed = 0;     // non-OK or wrong
  std::uint64_t ok = 0;
  // How late each operation started: against its schedule in an open loop,
  // against the completion of the previous one in a closed loop.
  std::vector<double> late_us;
};

// Layer rates measured in isolation by the probes (probes.cpp); the dense
// workload derives its roofline fractions from them.
struct Roofs {
  double b32_fp32_gflops = 0.0;  // one core, cache-resident BRGEMM
  double b32_bf16_gflops = 0.0;
  double triad_gbps = 0.0;       // whole team, arrays beyond the LLC
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what a window needs (operands, plans, sessions, server); main()
  // times it. teardown() releases it so the next setup builds it again.
  virtual void setup() = 0;
  virtual void teardown() = 0;
  // Runs one window of about `seconds`, recording every output it sees.
  virtual Window measure(double seconds) = 0;
  // Checks the recorded outputs against references; returns the number of
  // wrong ones. Runs once after the windows, outside the timed part.
  virtual std::uint64_t verify() = 0;
  // Layer counters of the last window (the traced one), plus zeros for the
  // layers this workload does not exercise.
  virtual void layer_metrics(const Roofs& roofs, Metrics* out) = 0;
};

std::unique_ptr<Workload> make_dense_kernels(const Options& o);
std::unique_ptr<Workload> make_llm_generate(const Options& o);
std::unique_ptr<Workload> make_wire_small(const Options& o);
std::unique_ptr<Workload> make_wire_mixed(const Options& o);

// Zero-valued per-layer metrics for layers a workload leaves idle, so every
// traced run reports the same metric names.
void add_idle_kernel_metrics(Metrics* out);
void add_idle_serving_metrics(Metrics* out);

// Runs the isolated layer probes (tpp, memory, parlooper, net codec, dl) and
// appends their metrics; returns the roofs the dense workload needs.
Roofs run_probes(double seconds, Metrics* out);

}  // namespace plt::suite
