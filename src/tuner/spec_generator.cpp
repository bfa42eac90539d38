#include "tuner/spec_generator.hpp"

#include <algorithm>
#include <set>

#include "common/math_utils.hpp"
#include "common/rng.hpp"

namespace plt::tuner {

namespace {

// Contiguous windows of the ascending prefix-product list, assigned
// outermost-first (descending) to the blocking levels.
std::vector<std::vector<std::int64_t>> blocking_choices(std::int64_t trip,
                                                        std::int64_t step,
                                                        int levels) {
  std::vector<std::vector<std::int64_t>> out;
  if (levels == 0) {
    out.push_back({});
    return out;
  }
  const std::vector<std::int64_t> pp = prefix_product_blockings(trip, step);
  // Drop the full-trip product (a blocking equal to the whole trip count is
  // the unblocked loop again).
  std::vector<std::int64_t> opts;
  for (std::int64_t v : pp)
    if (v < trip * step) opts.push_back(v);
  if (static_cast<int>(opts.size()) < levels) return out;  // infeasible
  for (std::size_t lo = 0; lo + static_cast<std::size_t>(levels) <= opts.size(); ++lo) {
    // Window [lo, lo+levels) ascending; blocking lists are outermost-first,
    // i.e. descending.
    std::vector<std::int64_t> w(opts.begin() + static_cast<std::ptrdiff_t>(lo),
                                opts.begin() + static_cast<std::ptrdiff_t>(lo) + levels);
    std::reverse(w.begin(), w.end());
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

std::vector<TuneCandidate> generate_gemm_candidates(
    const perfmodel::GemmModelProblem& p, const SpecGenOptions& opts) {
  const std::int64_t Kb = p.K / p.bk, Mb = p.M / p.bm, Nb = p.N / p.bn;
  const std::int64_t k_step = resolve_k_step(p.k_step, Kb);

  std::vector<TuneCandidate> all;
  std::set<std::string> seen;

  for (int ta = 0; ta <= opts.max_blockings[0]; ++ta) {
    const auto ka = blocking_choices(Kb / k_step, k_step, ta);
    for (int tb = 0; tb <= opts.max_blockings[1]; ++tb) {
      const auto kb = blocking_choices(Mb, 1, tb);
      for (int tc = 0; tc <= opts.max_blockings[2]; ++tc) {
        const auto kc = blocking_choices(Nb, 1, tc);
        if (ka.empty() || kb.empty() || kc.empty()) continue;

        // Letter multiset for this blocking structure.
        std::string letters;
        letters.append(static_cast<std::size_t>(ta) + 1, 'a');
        letters.append(static_cast<std::size_t>(tb) + 1, 'b');
        letters.append(static_cast<std::size_t>(tc) + 1, 'c');
        std::sort(letters.begin(), letters.end());

        do {
          // Parallelization choices: single M or N occurrence, adjacent
          // (M,N) pair, or none.
          std::vector<std::string> variants;
          if (opts.include_serial) variants.push_back(letters);
          for (std::size_t i = 0; i < letters.size(); ++i) {
            const char ch = letters[i];
            if ((ch == 'b' && opts.allow_parallel_m) ||
                (ch == 'c' && opts.allow_parallel_n)) {
              std::string v = letters;
              v[i] = static_cast<char>(std::toupper(ch));
              variants.push_back(v);
              if (i + 1 < letters.size()) {
                const char nx = letters[i + 1];
                if (nx != ch &&
                    ((nx == 'b' && opts.allow_parallel_m) ||
                     (nx == 'c' && opts.allow_parallel_n))) {
                  std::string v2 = v;
                  v2[i + 1] = static_cast<char>(std::toupper(nx));
                  variants.push_back(v2);
                }
              }
            }
          }
          for (const std::string& spec : variants) {
            // Take the first blocking window per loop for permutation
            // variants beyond the first; all windows for the identity
            // permutation keeps the candidate count manageable.
            for (const auto& bk_a : ka)
              for (const auto& bk_b : kb)
                for (const auto& bk_c : kc) {
                  std::string key = spec + "/";
                  for (auto v : bk_a) key += std::to_string(v) + ",";
                  key += "/";
                  for (auto v : bk_b) key += std::to_string(v) + ",";
                  key += "/";
                  for (auto v : bk_c) key += std::to_string(v) + ",";
                  if (!seen.insert(key).second) continue;
                  all.push_back(TuneCandidate{spec, bk_a, bk_b, bk_c});
                }
          }
        } while (std::next_permutation(letters.begin(), letters.end()));
      }
    }
  }

  // Deterministic down-sample to the candidate budget (keep the first few
  // canonical orders, sample the rest).
  if (all.size() > opts.max_candidates) {
    Xoshiro256 rng(opts.seed);
    const std::size_t keep_head = std::min<std::size_t>(8, opts.max_candidates);
    std::vector<TuneCandidate> sampled(all.begin(),
                                       all.begin() + static_cast<std::ptrdiff_t>(keep_head));
    std::vector<TuneCandidate> rest(all.begin() + static_cast<std::ptrdiff_t>(keep_head),
                                    all.end());
    // Fisher-Yates prefix shuffle of the remainder.
    for (std::size_t i = 0; i < rest.size() && sampled.size() < opts.max_candidates; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(
                                     rng.bounded(rest.size() - i));
      std::swap(rest[i], rest[j]);
      sampled.push_back(rest[i]);
    }
    return sampled;
  }
  return all;
}

}  // namespace plt::tuner
