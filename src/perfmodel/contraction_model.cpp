#include "perfmodel/contraction_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_utils.hpp"
#include "parlooper/interpreter.hpp"

namespace plt::perfmodel {

Prediction predict_contraction(const parlooper::LoopNestPlan& plan,
                               const ContractionDesc& desc,
                               const PlatformModel& platform, int nthreads) {
  PLT_CHECK(nthreads >= 1, "model: need at least one thread");
  const double peak = desc.bf16 ? platform.bf16_flops_per_cycle
                                : platform.fp32_flops_per_cycle;
  const double compute_cycles = desc.flops_per_call / peak;

  Prediction out;
  double total_flops = 0.0;
  for (int tid = 0; tid < nthreads; ++tid) {
    LruCacheSim sim(platform.caches);
    double cycles = 0.0;
    std::int64_t calls = 0;
    parlooper::simulate_thread(plan, tid, nthreads, [&](const std::int64_t* ind) {
      double data_cycles = 0.0;
      for (const auto& slice_fn : {&desc.a_slice, &desc.b_slice, &desc.c_slice}) {
        const SliceAccess s = (*slice_fn)(ind);
        const int level = sim.access(s.id, s.bytes);
        const double bw = level < sim.levels()
                              ? platform.caches[static_cast<std::size_t>(level)]
                                    .bytes_per_cycle
                              : platform.mem_bytes_per_cycle;
        data_cycles = std::max(data_cycles, static_cast<double>(s.bytes) / bw);
      }
      cycles += std::max(compute_cycles, data_cycles);
      ++calls;
      total_flops += desc.flops_per_call;
    });
    if (cycles > out.cycles) {
      out.cycles = cycles;
      out.busiest_thread_calls = calls;
    }
  }
  out.flops_per_cycle = out.cycles > 0.0 ? total_flops / out.cycles : 0.0;
  return out;
}

Prediction model_gemm_spec(const GemmModelProblem& p, const std::string& spec,
                           const PlatformModel& platform, int nthreads) {
  const std::int64_t Mb = p.M / p.bm, Nb = p.N / p.bn, Kb = p.K / p.bk;
  PLT_CHECK(Mb > 0 && Nb > 0 && Kb > 0, "model: blocks must divide shape");
  const std::int64_t k_step = resolve_k_step(p.k_step, Kb);
  std::vector<parlooper::LoopSpecs> loops = {
      parlooper::LoopSpecs{0, Kb, k_step, p.k_blocking},
      parlooper::LoopSpecs{0, Mb, 1, p.m_blocking},
      parlooper::LoopSpecs{0, Nb, 1, p.n_blocking}};
  parlooper::LoopNestPlan plan(loops, spec);

  const std::int64_t esz = p.bf16 ? 2 : 4;
  ContractionDesc desc;
  desc.flops_per_call =
      2.0 * static_cast<double>(p.bm) * p.bn * p.bk * k_step;
  desc.bf16 = p.bf16;
  const std::int64_t a_bytes = p.bm * p.bk * k_step * esz;
  const std::int64_t b_bytes = p.bk * p.bn * k_step * esz;
  const std::int64_t c_bytes = p.bm * p.bn * 4;  // C accumulates in fp32
  // Slice ids: tensor tag in the top bits, block coordinates below. The
  // K loop iterates in k_step strides, so ik / k_step indexes the fused
  // slice the BRGEMM touches.
  desc.a_slice = [=](const std::int64_t* ind) {
    return SliceAccess{(1ull << 62) | static_cast<std::uint64_t>(
                                          (ind[1] * Kb + ind[0]) / k_step),
                       a_bytes};
  };
  desc.b_slice = [=](const std::int64_t* ind) {
    return SliceAccess{(2ull << 62) | static_cast<std::uint64_t>(
                                          (ind[2] * Kb + ind[0]) / k_step),
                       b_bytes};
  };
  desc.c_slice = [=](const std::int64_t* ind) {
    return SliceAccess{(3ull << 62) | static_cast<std::uint64_t>(
                                          ind[2] * Mb + ind[1]),
                       c_bytes};
  };
  return predict_contraction(plan, desc, platform, nthreads);
}

}  // namespace plt::perfmodel
