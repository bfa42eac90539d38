#include "tuner/tuner.hpp"

#include <algorithm>
#include <fstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"

namespace plt::tuner {

GemmTuner::GemmTuner(kernels::GemmConfig base, TuneOptions opts)
    : base_(std::move(base)), opts_(opts) {}

kernels::GemmConfig GemmTuner::apply(const TuneCandidate& c) const {
  kernels::GemmConfig cfg = base_;
  cfg.loop_spec = c.spec;
  cfg.k_blocking = c.k_blocking;
  cfg.m_blocking = c.m_blocking;
  cfg.n_blocking = c.n_blocking;
  return cfg;
}

perfmodel::GemmModelProblem GemmTuner::model_problem() const {
  perfmodel::GemmModelProblem p;
  p.M = base_.M;
  p.N = base_.N;
  p.K = base_.K;
  p.bm = base_.bm;
  p.bn = base_.bn;
  p.bk = base_.bk;
  p.k_step = base_.resolved_k_step();
  p.bf16 = base_.dtype == DType::BF16;
  return p;
}

std::vector<TuneResult> GemmTuner::rank_with_model(
    const std::vector<TuneCandidate>& candidates) const {
  const int threads = opts_.model_threads > 0 ? opts_.model_threads
                                              : max_threads();
  perfmodel::GemmModelProblem p = model_problem();
  std::vector<TuneResult> out;
  out.reserve(candidates.size());
  for (const TuneCandidate& c : candidates) {
    p.k_blocking = c.k_blocking;
    p.m_blocking = c.m_blocking;
    p.n_blocking = c.n_blocking;
    TuneResult r;
    r.candidate = c;
    r.model_score =
        perfmodel::model_gemm_spec(p, c.spec, opts_.platform, threads)
            .flops_per_cycle;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const TuneResult& a, const TuneResult& b) {
    return a.model_score > b.model_score;
  });
  return out;
}

std::vector<TuneResult> GemmTuner::run(
    const std::vector<TuneCandidate>& candidates,
    double* tuning_seconds) const {
  PLT_CHECK(!candidates.empty(), "tuner: no candidates to run");
  WallTimer total;

  std::vector<TuneResult> to_run;
  if (opts_.model_top_k > 0) {
    to_run = rank_with_model(candidates);
    if (static_cast<int>(to_run.size()) > opts_.model_top_k) {
      to_run.resize(static_cast<std::size_t>(opts_.model_top_k));
    }
  } else {
    to_run.reserve(candidates.size());
    for (const TuneCandidate& c : candidates) {
      TuneResult r;
      r.candidate = c;
      to_run.push_back(std::move(r));
    }
  }

  // One shared operand set across candidates (the spec only changes the
  // schedule, not the operands).
  kernels::GemmKernel probe(apply(to_run.front().candidate));
  AlignedBuffer<std::uint8_t> a(probe.a_elems() * dtype_size(base_.dtype));
  AlignedBuffer<std::uint8_t> b(probe.b_elems() * dtype_size(base_.dtype));
  AlignedBuffer<std::uint8_t> c(probe.c_elems() * dtype_size(base_.dtype));
  {
    Xoshiro256 rng(7);
    std::vector<float> flat(std::max(probe.a_elems(), probe.b_elems()));
    fill_uniform(flat.data(), flat.size(), rng, -0.5f, 0.5f);
    probe.pack_a(flat.data(), a.data());
    probe.pack_b(flat.data(), b.data());
  }

  for (TuneResult& r : to_run) {
    kernels::GemmKernel kernel(apply(r.candidate));
    r.seconds = time_best_seconds(
        [&] { kernel.run(a.data(), b.data(), c.data()); }, opts_.warmup,
        opts_.iters);
    r.gflops = gflops(kernel.flops(), r.seconds);
  }

  std::sort(to_run.begin(), to_run.end(),
            [](const TuneResult& x, const TuneResult& y) {
              return x.gflops > y.gflops;
            });
  if (tuning_seconds != nullptr) *tuning_seconds = total.seconds();
  return to_run;
}

void GemmTuner::write_csv(const std::string& path,
                          const std::vector<TuneResult>& results) {
  std::ofstream os(path);
  PLT_CHECK(static_cast<bool>(os), "tuner: cannot open csv for writing");
  os << "spec,k_blocking,m_blocking,n_blocking,seconds,gflops,model_score\n";
  const auto join = [](const std::vector<std::int64_t>& v) {
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ' ';
      s += std::to_string(v[i]);
    }
    return s;
  };
  for (const TuneResult& r : results) {
    os << r.candidate.spec << ',' << join(r.candidate.k_blocking) << ','
       << join(r.candidate.m_blocking) << ',' << join(r.candidate.n_blocking)
       << ',' << r.seconds << ',' << r.gflops << ',' << r.model_score << '\n';
  }
}

}  // namespace plt::tuner
