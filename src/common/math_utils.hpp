// Small integer-math helpers shared by the tuner (prime-factor blockings,
// Section II-D constraint 2) and by layout code.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace plt {

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  PLT_DCHECK(b > 0, "ceil_div by non-positive");
  return (a + b - 1) / b;
}

inline std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

// K blocks per BRGEMM call: an explicit k_step as given, the default 0 as
// all kb blocks (one call reduces the whole K).
inline std::int64_t resolve_k_step(std::int64_t k_step, std::int64_t kb) {
  PLT_CHECK(k_step >= 0, "k_step must be >= 0 (0 = all of K)");
  return k_step > 0 ? k_step : kb;
}

// Prime factorization in ascending order, e.g. 12 -> {2, 2, 3}.
inline std::vector<std::int64_t> prime_factors(std::int64_t n) {
  std::vector<std::int64_t> f;
  PLT_CHECK(n >= 1, "prime_factors of non-positive value");
  for (std::int64_t p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  if (n > 1) f.push_back(n);
  return f;
}

// All divisors of n in ascending order.
inline std::vector<std::int64_t> divisors(std::int64_t n) {
  std::vector<std::int64_t> lo, hi;
  for (std::int64_t d = 1; d * d <= n; ++d) {
    if (n % d == 0) {
      lo.push_back(d);
      if (d != n / d) hi.push_back(n / d);
    }
  }
  for (auto it = hi.rbegin(); it != hi.rend(); ++it) lo.push_back(*it);
  return lo;
}

// Prefix products of the prime factors scaled by `step` — the paper's
// programmatic blocking-factor rule (Section II-D, constraint 2):
// l0 = step*p0, l1 = step*p0*p1, ...
inline std::vector<std::int64_t> prefix_product_blockings(std::int64_t trip,
                                                          std::int64_t step) {
  std::vector<std::int64_t> out;
  std::int64_t acc = step;
  for (std::int64_t p : prime_factors(trip)) {
    acc *= p;
    out.push_back(acc);
  }
  return out;
}

}  // namespace plt
