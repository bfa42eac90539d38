#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "parlooper/loop_spec.hpp"
#include "tuner/tuner.hpp"

namespace plt::tuner {
namespace {

perfmodel::GemmModelProblem small_problem() {
  perfmodel::GemmModelProblem p;
  p.M = 128;
  p.N = 128;
  p.K = 128;
  p.bm = p.bn = p.bk = 32;  // 4 blocks per dim
  p.k_step = 1;  // one K block per call, so K blockings are candidates too
  return p;
}

TEST(SpecGenerator, CandidatesAreValidSpecs) {
  const auto p = small_problem();
  SpecGenOptions opts;
  opts.max_candidates = 48;
  const auto cands = generate_gemm_candidates(p, opts);
  ASSERT_FALSE(cands.empty());
  for (const TuneCandidate& c : cands) {
    std::vector<parlooper::LoopSpecs> loops = {
        parlooper::LoopSpecs{0, p.K / p.bk, p.k_step, c.k_blocking},
        parlooper::LoopSpecs{0, p.M / p.bm, 1, c.m_blocking},
        parlooper::LoopSpecs{0, p.N / p.bn, 1, c.n_blocking}};
    const auto parsed = parlooper::parse_loop_spec(c.spec, 3);
    EXPECT_EQ(parlooper::validate_spec(parsed, loops), "") << c.spec;
  }
}

TEST(SpecGenerator, EveryCandidateIsParallelByDefault) {
  const auto cands = generate_gemm_candidates(small_problem(), SpecGenOptions{});
  for (const TuneCandidate& c : cands) {
    bool has_upper = false;
    for (char ch : c.spec) has_upper = has_upper || std::isupper(static_cast<unsigned char>(ch));
    EXPECT_TRUE(has_upper) << c.spec;
  }
}

TEST(SpecGenerator, RespectsCandidateBudgetAndIsDeterministic) {
  SpecGenOptions opts;
  opts.max_candidates = 10;
  const auto a = generate_gemm_candidates(small_problem(), opts);
  const auto b = generate_gemm_candidates(small_problem(), opts);
  EXPECT_LE(a.size(), 10u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].spec, b[i].spec);
}

TEST(SpecGenerator, CandidatesAreUnique) {
  SpecGenOptions opts;
  opts.max_candidates = 200;
  const auto cands = generate_gemm_candidates(small_problem(), opts);
  std::set<std::string> keys;
  for (const TuneCandidate& c : cands) {
    std::string k = c.spec;
    for (auto v : c.k_blocking) k += "/" + std::to_string(v);
    for (auto v : c.m_blocking) k += "/" + std::to_string(v);
    for (auto v : c.n_blocking) k += "/" + std::to_string(v);
    EXPECT_TRUE(keys.insert(k).second) << k;
  }
}

TEST(GemmTuner, RunsAndRanksCandidates) {
  kernels::GemmConfig base;
  base.M = base.N = base.K = 128;
  base.bm = base.bn = base.bk = 32;
  base.k_step = 1;  // as small_problem(): its candidates block K
  SpecGenOptions gopts;
  gopts.max_candidates = 6;
  const auto cands = generate_gemm_candidates(small_problem(), gopts);
  ASSERT_GE(cands.size(), 2u);

  TuneOptions topts;
  topts.warmup = 0;
  topts.iters = 1;
  GemmTuner tuner(base, topts);
  double secs = 0.0;
  const auto results = tuner.run(cands, &secs);
  ASSERT_EQ(results.size(), cands.size());
  EXPECT_GT(secs, 0.0);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].gflops, results[i].gflops);  // sorted best-first
  }
  for (const auto& r : results) EXPECT_GT(r.gflops, 0.0);
}

TEST(GemmTuner, ModelTopKReducesBenchmarkedSet) {
  kernels::GemmConfig base;
  base.M = base.N = base.K = 128;
  base.bm = base.bn = base.bk = 32;
  base.k_step = 1;  // as small_problem(): its candidates block K
  SpecGenOptions gopts;
  gopts.max_candidates = 12;
  const auto cands = generate_gemm_candidates(small_problem(), gopts);

  TuneOptions topts;
  topts.warmup = 0;
  topts.iters = 1;
  topts.model_top_k = 3;
  topts.model_threads = 4;
  GemmTuner tuner(base, topts);
  const auto results = tuner.run(cands);
  EXPECT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_GT(r.model_score, 0.0);
}

TEST(GemmTuner, CsvRoundTrip) {
  TuneResult r;
  r.candidate = TuneCandidate{"aBC", {}, {2}, {2}};
  r.seconds = 0.5;
  r.gflops = 12.5;
  const std::string path = "/tmp/plt_tuner_test.csv";
  GemmTuner::write_csv(path, {r});
  std::ifstream is(path);
  std::string header, line;
  std::getline(is, header);
  std::getline(is, line);
  EXPECT_NE(header.find("gflops"), std::string::npos);
  EXPECT_NE(line.find("aBC"), std::string::npos);
  EXPECT_NE(line.find("12.5"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plt::tuner
