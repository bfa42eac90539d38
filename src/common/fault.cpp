#include "common/fault.hpp"

#include <array>
#include <atomic>
#include <mutex>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"

namespace plt::common::fault {

namespace {

struct SiteState {
  // Armed configuration. configure() writes these, then publishes via
  // enabled (release); the fast path loads enabled (acquire) before reading
  // them. They are atomics (relaxed) because a reconfigure can race fault
  // points still evaluating under the previous spec: such an evaluation
  // may see a mix of old and new fields, but never a torn or undefined one.
  std::atomic<Kind> kind{Kind::kNone};
  // Fire threshold in [0, 2^64): event fires iff mix(seed, site, n) < bar.
  std::atomic<std::uint64_t> bar{0};
  // Fire cap (0 = unlimited): after max_fires injections the site goes
  // quiet — `site:kind:1:1` is the deterministic "exactly once" chaos spec.
  std::atomic<std::uint64_t> max_fires{0};

  std::atomic<std::uint64_t> evaluated{0};
  std::atomic<std::uint64_t> injected{0};
};

struct Harness {
  std::atomic<bool> enabled{false};
  std::atomic<int> suppress{0};
  std::atomic<std::uint64_t> seed{0};
  std::array<SiteState, kSiteCount> sites;
  std::mutex config_mu;
};

Harness& harness() {
  static Harness* h = new Harness();  // leaked: fault points outlive main
  return *h;
}

// splitmix64: full-avalanche mix so per-site event streams are independent
// and reproducible for a fixed seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool parse_site(const std::string& tok, Site* out) {
  if (tok == "kernel_exec") *out = Site::kKernelExec;
  else if (tok == "queue_push") *out = Site::kQueuePush;
  else if (tok == "session_warmup") *out = Site::kSessionWarmup;
  else if (tok == "registry_lookup") *out = Site::kRegistryLookup;
  else if (tok == "net_write") *out = Site::kNetWrite;
  else if (tok == "dispatcher_stall") *out = Site::kDispatcherStall;
  else if (tok == "conn_accept") *out = Site::kConnAccept;
  else return false;
  return true;
}

bool parse_kind(const std::string& tok, Kind* out) {
  if (tok == "throw") *out = Kind::kThrow;
  else if (tok == "full") *out = Kind::kFull;
  else if (tok == "fail") *out = Kind::kFail;
  else return false;
  return true;
}

// Applies one `site:kind:prob[:max]` entry; false (with a warning) on
// malformed input — the site stays disarmed, it never half-arms.
bool apply_triple(Harness& h, const std::string& triple) {
  const std::size_t c1 = triple.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                 : triple.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) return false;
  const std::size_t c3 = triple.find(':', c2 + 1);
  Site site;
  Kind kind;
  if (!parse_site(triple.substr(0, c1), &site)) return false;
  if (!parse_kind(triple.substr(c1 + 1, c2 - c1 - 1), &kind)) return false;
  const std::size_t prob_end = c3 == std::string::npos ? triple.size() : c3;
  double prob = -1.0;
  try {
    std::size_t used = 0;
    prob = std::stod(triple.substr(c2 + 1, prob_end - c2 - 1), &used);
    if (used != prob_end - c2 - 1) return false;
  } catch (...) {
    return false;
  }
  if (!(prob >= 0.0 && prob <= 1.0)) return false;
  std::uint64_t max_fires = 0;  // 0 = unlimited
  if (c3 != std::string::npos) {
    try {
      std::size_t used = 0;
      const long long v = std::stoll(triple.substr(c3 + 1), &used);
      if (used != triple.size() - c3 - 1 || v < 0) return false;
      max_fires = static_cast<std::uint64_t>(v);
    } catch (...) {
      return false;
    }
  }
  SiteState& st = h.sites[static_cast<std::size_t>(site)];
  st.kind.store(prob > 0.0 ? kind : Kind::kNone, std::memory_order_relaxed);
  // prob 1.0 must always fire: saturate instead of wrapping to 0.
  st.bar.store(prob >= 1.0 ? ~0ull
                           : static_cast<std::uint64_t>(
                                 prob * 18446744073709551616.0 /* 2^64 */),
               std::memory_order_relaxed);
  st.max_fires.store(max_fires, std::memory_order_relaxed);
  return true;
}

void configure_locked(Harness& h, const std::string& spec,
                      std::uint64_t seed) {
  h.enabled.store(false, std::memory_order_release);
  h.seed.store(seed, std::memory_order_relaxed);
  for (SiteState& st : h.sites) {
    st.kind.store(Kind::kNone, std::memory_order_relaxed);
    st.bar.store(0, std::memory_order_relaxed);
    st.max_fires.store(0, std::memory_order_relaxed);
    st.evaluated.store(0, std::memory_order_relaxed);
    st.injected.store(0, std::memory_order_relaxed);
  }
  bool any = false;
  std::size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    const std::size_t semi = spec.find(';', pos);
    const std::size_t end = semi == std::string::npos ? spec.size() : semi;
    const std::string triple = spec.substr(pos, end - pos);
    if (!triple.empty()) {
      if (!apply_triple(h, triple)) {
        PLT_LOG_WARN << "fault: malformed PLT_FAULT_SPEC triple '" << triple
                     << "' (want site:kind:prob); dropped";
      }
    }
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  for (const SiteState& st : h.sites) {
    any = any || st.kind.load(std::memory_order_relaxed) != Kind::kNone;
  }
  h.enabled.store(any, std::memory_order_release);
}

// One-time env arming: the first fault-point evaluation (or enabled() call)
// reads PLT_FAULT_SPEC / PLT_FAULT_SEED. configure() afterwards overrides.
void arm_from_env_once() {
  static const bool once = [] {
    const std::string spec = env_str("PLT_FAULT_SPEC", "");
    if (!spec.empty()) {
      Harness& h = harness();
      std::lock_guard<std::mutex> g(h.config_mu);
      configure_locked(
          h, spec,
          static_cast<std::uint64_t>(env_int("PLT_FAULT_SEED", 0)));
    }
    return true;
  }();
  (void)once;
}

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::kKernelExec: return "kernel_exec";
    case Site::kQueuePush: return "queue_push";
    case Site::kSessionWarmup: return "session_warmup";
    case Site::kRegistryLookup: return "registry_lookup";
    case Site::kNetWrite: return "net_write";
    case Site::kDispatcherStall: return "dispatcher_stall";
    case Site::kConnAccept: return "conn_accept";
  }
  return "?";
}

bool enabled() {
  arm_from_env_once();
  return harness().enabled.load(std::memory_order_acquire);
}

Kind should_inject(Site s) {
  arm_from_env_once();
  Harness& h = harness();
  if (!h.enabled.load(std::memory_order_acquire)) return Kind::kNone;
  if (h.suppress.load(std::memory_order_acquire) > 0) return Kind::kNone;
  SiteState& st = h.sites[static_cast<std::size_t>(s)];
  const Kind kind = st.kind.load(std::memory_order_relaxed);
  if (kind == Kind::kNone) return Kind::kNone;
  const std::uint64_t n = st.evaluated.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t u = mix(h.seed.load(std::memory_order_relaxed) ^
                              (static_cast<std::uint64_t>(s) << 56) ^ n);
  if (u >= st.bar.load(std::memory_order_relaxed)) return Kind::kNone;
  const std::uint64_t max_fires = st.max_fires.load(std::memory_order_relaxed);
  if (max_fires != 0) {
    // Capped site: the injected counter doubles as the fire budget, claimed
    // with a CAS so it stays exact (tests assert injected == fires).
    std::uint64_t cur = st.injected.load(std::memory_order_relaxed);
    do {
      if (cur >= max_fires) return Kind::kNone;
    } while (!st.injected.compare_exchange_weak(cur, cur + 1,
                                                std::memory_order_relaxed));
    return kind;
  }
  st.injected.fetch_add(1, std::memory_order_relaxed);
  return kind;
}

Kind fire_point(Site s) {
  const Kind k = should_inject(s);
  if (k == Kind::kThrow) {
    throw RuntimeError(StatusCode::kInternal,
                       std::string("injected fault at ") + site_name(s));
  }
  return k;
}

std::uint64_t evaluated(Site s) {
  return harness()
      .sites[static_cast<std::size_t>(s)]
      .evaluated.load(std::memory_order_relaxed);
}

std::uint64_t injected(Site s) {
  return harness()
      .sites[static_cast<std::size_t>(s)]
      .injected.load(std::memory_order_relaxed);
}

void configure(const std::string& spec, std::uint64_t seed) {
  arm_from_env_once();  // ensure env arming cannot later clobber this config
  Harness& h = harness();
  std::lock_guard<std::mutex> g(h.config_mu);
  configure_locked(h, spec, seed);
}

void reset() { configure("", 0); }

SuppressGuard::SuppressGuard() {
  harness().suppress.fetch_add(1, std::memory_order_acq_rel);
}

SuppressGuard::~SuppressGuard() {
  harness().suppress.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace plt::common::fault
