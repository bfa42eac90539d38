// bench_suite: the repository's end-to-end and per-layer benchmark.
//
//   bench_suite --workload <dense_kernels|llm_generate|wire_small|wire_mixed>
//               --seed <n> [--seconds <s>] [--trace <file>]
//
// One workload per process. Every PLT_* knob keeps its default, so a change
// of defaults (team size, pinning, batching window) shows in the numbers.
// The run sets the workload up, measures one window of --seconds, checks
// every output it saw, tears down and times four more set-ups (setup_s is
// the median of the five), and prints each metric with its unit and sample
// count; the last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics.
//
// --trace <file> sets up once, splits --seconds into an untraced and a traced
// window, runs the isolated layer probes, and writes the traced window's
// spans plus every per-layer metric to <file> as Chrome trace-event JSON
// (trace_summary.py turns it into the per-layer metric list). End-to-end
// metrics come from untraced windows only.
//
// Exit status: 0 when every output was correct, 1 when any was wrong, 2 on
// bad arguments, a failed set-up or an unwritable trace.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/cpu_features.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "common/threading.hpp"
#include "suite.hpp"
#include "trace.hpp"

namespace plt::suite {

Percentile percentile(std::vector<double> v, double p) {
  Percentile r;
  r.n = v.size();
  if (v.empty()) return r;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  r.value = v[idx];
  return r;
}

double supported_tail(std::size_t n) {
  return n < 20 ? 0.0 : 1.0 - 10.0 / static_cast<double>(n);
}

void add(Metrics* m, const std::string& name, double value,
         const std::string& unit, std::size_t n) {
  m->push_back(Metric{name, value, unit, n});
}

}  // namespace plt::suite

using namespace plt;
using namespace plt::suite;

namespace {

constexpr int kSetups = 5;
constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;

void usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload <dense_kernels|llm_generate|"
               "wire_small|wire_mixed> --seed <n> [--seconds <s>] "
               "[--trace <file>]\n");
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o->trace_path = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0 && o->seconds <= 120.0;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "dense_kernels") return make_dense_kernels(o);
  if (o.workload == "llm_generate") return make_llm_generate(o);
  if (o.workload == "wire_small") return make_wire_small(o);
  if (o.workload == "wire_mixed") return make_wire_mixed(o);
  return nullptr;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ThreadPool::Stats pool_stats() {
  return runtime() == Runtime::kPool ? ThreadPool::instance().stats()
                                     : ThreadPool::Stats{};
}

void print_metric(const Metric& m) {
  if (m.n > 0) {
    std::printf("  %-36s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  } else {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// JSON numbers carry all 17 significant digits; non-finite values (which no
// metric should produce) become null so the consumer rejects them loudly.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& ms, bool with_n) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (with_n) os << ", \"n\": " << m.n;
    os << "}";
  }
  os << "}";
  return os.str();
}

void print_window(const char* label, const Window& w) {
  const double tail = supported_tail(w.p50.n);
  std::printf("%s window %.2fs: %llu attempted, %llu ok, %llu failed; "
              "latency p50 %.4f ms p90 %.4f ms p99 %.4f ms (n=%zu, highest "
              "supported percentile p%.4g); throughput %.6g/s (n=%zu)\n",
              label, w.seconds, static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.ok),
              static_cast<unsigned long long>(w.failed), w.p50.value,
              w.p90.value, w.p99.value, w.p50.n, tail * 100.0, w.throughput,
              w.throughput_n);
  const Percentile l50 = percentile(w.late_us, 0.5);
  std::printf("  operation start lateness p50 %.2f us p99 %.2f us (n=%zu)\n",
              l50.value, percentile(w.late_us, 0.99).value, l50.n);
}

int run(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    usage();
    return 2;
  }
  std::unique_ptr<Workload> w = make(opt);
  if (!w) {
    usage();
    return 2;
  }
  const bool traced = !opt.trace_path.empty();
  const std::uint64_t t_process = trace::now_ns();

  std::printf("bench_suite workload=%s seed=%llu seconds=%.3g trace=%s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              traced ? opt.trace_path.c_str() : "off");
  std::printf("host: nproc=%ld team=%d partitions=%d runtime=%s isa=%s "
              "pin=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), max_threads(), pool_partitions(),
              runtime_name(runtime()), isa_name(effective_isa()),
              common::env_flag("PLT_PIN", true) ? 1 : 0);
  std::fflush(stdout);

  const auto timed_setup = [&w] {
    const std::uint64_t t0 = trace::now_ns();
    w->setup();
    return static_cast<double>(trace::now_ns() - t0) * 1e-9;
  };
  std::vector<double> setup_s = {timed_setup()};
  std::printf("setup: %.3fs, ready %.3fs after process start\n",
              setup_s.front(),
              static_cast<double>(trace::now_ns() - t_process) * 1e-9);

  const Window u = w->measure(traced ? opt.seconds / 2 : opt.seconds);
  print_window("untraced", u);

  Metrics layer;
  Window t;
  if (traced) {
    const ThreadPool::Stats before = pool_stats();
    trace::start(kSpansPerThread);
    t = w->measure(opt.seconds / 2);
    trace::stop();
    const ThreadPool::Stats after = pool_stats();
    print_window("traced", t);

    const double ops = static_cast<double>(std::max<std::uint64_t>(1, t.attempted));
    add(&layer, "trace.overhead_pct",
        (t.p50.value / u.p50.value - 1.0) * 100.0, "%");
    add(&layer, "trace.dropped", static_cast<double>(trace::dropped()),
        "count");
    add(&layer, "pool.team_regions",
        static_cast<double>(after.team_regions - before.team_regions),
        "count");
    add(&layer, "pool.serial_degradations",
        static_cast<double>(after.serial_degradations -
                            before.serial_degradations),
        "count");
    add(&layer, "pool.barrier_epochs",
        static_cast<double>(after.barrier_epochs - before.barrier_epochs),
        "count");
    add(&layer, "pool.regions_per_op",
        static_cast<double>(after.team_regions - before.team_regions) / ops,
        "1/op");
    const Percentile l50 = percentile(t.late_us, 0.50);
    const Percentile l99 = percentile(t.late_us, 0.99);
    const Percentile lmax = percentile(t.late_us, 1.0);
    add(&layer, "loadgen.late_us_p50", l50.value, "us", l50.n);
    add(&layer, "loadgen.late_us_p99", l99.value, "us", l99.n);
    add(&layer, "loadgen.late_us_max", lmax.value, "us", lmax.n);
    add(&layer, "loadgen.sent", static_cast<double>(t.attempted), "count");
    add(&layer, "loadgen.ok", static_cast<double>(t.ok), "count");
    // Not end-to-end metrics: they repeat too poorly between runs on a
    // shared host to gate on (README "Noise").
    add(&layer, "diag.latency_p50_ms", u.p50.value, "ms", u.p50.n);
    add(&layer, "diag.latency_p99_ms", u.p99.value, "ms", u.p99.n);
    add(&layer, "diag.throughput", u.throughput, "items/s", u.throughput_n);
  }

  const std::uint64_t wrong = w->verify();
  const std::uint64_t attempted = u.attempted + t.attempted;
  const std::uint64_t failed = u.failed + t.failed;
  const bool correct = wrong == 0;
  std::printf("verify: %llu wrong outputs; %llu of %llu operations failed\n",
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  // Generator lateness beyond a tenth of the median latency means the
  // latency numbers measure the generator, not the server.
  const Percentile u_late99 = percentile(u.late_us, 0.99);
  if (u_late99.n > 0 && u_late99.value > 0.1 * u.p50.value * 1e3) {
    std::printf("INVALID RUN: generator p99 lateness %.1f us exceeds 10%% of "
                "the p50 latency\n",
                u_late99.value);
  }

  if (traced) {
    w->layer_metrics(run_probes(opt.seconds < 4 ? 0.02 : 0.1, &layer), &layer);
    std::printf("per-layer metrics:\n");
    for (const Metric& m : layer) print_metric(m);
    w->teardown();
    std::ostringstream other;
    other << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
          << opt.seed << ", \"metrics\": " << metrics_json(layer, true)
          << "}";
    if (!trace::write_chrome(opt.trace_path, other.str())) {
      std::fprintf(stderr, "bench_suite: cannot write trace %s\n",
                   opt.trace_path.c_str());
      return 2;
    }
    std::printf("trace: %llu spans (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(trace::recorded()),
                static_cast<unsigned long long>(trace::dropped()),
                opt.trace_path.c_str());
  } else {
    w->teardown();
    while (static_cast<int>(setup_s.size()) < kSetups) {
      setup_s.push_back(timed_setup());
      w->teardown();
    }
  }

  std::printf("setup times:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf(" s\n");
  Metrics e2e;
  add(&e2e, "setup_s", percentile(setup_s, 0.5).value, "s", setup_s.size());
  add(&e2e, "peak_rss_mb", peak_rss_mb(), "MB");
  add(&e2e, "latency_p90_ms", u.p90.value, "ms", u.p90.n);

  std::printf("end-to-end metrics:\n");
  for (const Metric& m : e2e) print_metric(m);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(e2e, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 2;
  }
}
