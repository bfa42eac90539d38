#include "analysis/verifier.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/log.hpp"

namespace plt::analysis {

namespace {

using parlooper::AccessMap;
using parlooper::LoopNestPlan;
using parlooper::TensorAccess;
using parlooper::ThreadProgram;

// Logical axis l in body-index terms: the values ind[l] takes are
// start + i * step for i in [0, trips).
struct LogicalAxis {
  std::int64_t start = 0;
  std::int64_t step = 1;
  std::int64_t trips = 0;
};

std::vector<LogicalAxis> logical_axes(const LoopNestPlan& plan) {
  std::vector<LogicalAxis> axes(static_cast<std::size_t>(plan.num_logical()));
  for (int l = 0; l < plan.num_logical(); ++l) {
    const auto& spec = plan.loops()[static_cast<std::size_t>(l)];
    const int inner = plan.innermost_level()[static_cast<std::size_t>(l)];
    LogicalAxis& ax = axes[static_cast<std::size_t>(l)];
    ax.start = spec.start;
    ax.step = plan.levels()[static_cast<std::size_t>(inner)].step;
    ax.trips = (spec.end - spec.start) / ax.step;
  }
  return axes;
}

std::string tuple_to_string(const std::int64_t* ind, int nlog) {
  std::string s = "(";
  for (int l = 0; l < nlog; ++l) {
    if (l > 0) s += ", ";
    s += std::to_string(ind[l]);
  }
  return s + ")";
}

class IssueSink {
 public:
  IssueSink(VerifyReport& report, std::size_t max_issues)
      : report_(report), max_issues_(max_issues) {}

  void add(IssueKind kind, std::string message) {
    if (report_.issues.size() < max_issues_) {
      report_.issues.push_back(Issue{kind, std::move(message)});
    } else {
      ++report_.suppressed_issues;
    }
  }

  // Findings beyond this are pure noise; callers stop scanning entirely.
  bool saturated() const { return report_.suppressed_issues > 1000; }

 private:
  VerifyReport& report_;
  std::size_t max_issues_;
};

// --- coverage ----------------------------------------------------------------

void check_coverage(const LoopNestPlan& plan,
                    const std::vector<ThreadProgram>& threads,
                    IssueSink& sink) {
  const int nlog = plan.num_logical();
  const std::vector<LogicalAxis> axes = logical_axes(plan);
  const std::int64_t total = plan.total_iterations();

  // Row-major rank strides over the per-axis trip counts.
  std::vector<std::int64_t> strides(axes.size(), 1);
  for (std::size_t l = axes.size(); l-- > 1;) {
    strides[l - 1] = strides[l] * std::max<std::int64_t>(axes[l].trips, 1);
  }

  std::vector<std::uint32_t> counts(static_cast<std::size_t>(total), 0);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const ThreadProgram& prog = threads[t];
    const std::size_t ninv =
        prog.inds.size() / static_cast<std::size_t>(nlog);
    for (std::size_t i = 0; i < ninv; ++i) {
      const std::int64_t* ind = prog.inds.data() + i * static_cast<std::size_t>(nlog);
      std::int64_t rank = 0;
      bool on_grid = true;
      for (int l = 0; l < nlog && on_grid; ++l) {
        const LogicalAxis& ax = axes[static_cast<std::size_t>(l)];
        const std::int64_t off = ind[l] - ax.start;
        if (ax.step <= 0 || off < 0 || off % ax.step != 0 ||
            off / ax.step >= ax.trips) {
          on_grid = false;
        } else {
          rank += (off / ax.step) * strides[static_cast<std::size_t>(l)];
        }
      }
      if (!on_grid) {
        sink.add(IssueKind::kCoverage,
                 "thread " + std::to_string(t) + ": tuple " +
                     tuple_to_string(ind, nlog) +
                     " is off the logical iteration grid");
        continue;
      }
      ++counts[static_cast<std::size_t>(rank)];
    }
  }

  std::vector<std::int64_t> ind(static_cast<std::size_t>(nlog), 0);
  for (std::int64_t rank = 0; rank < total; ++rank) {
    const std::uint32_t c = counts[static_cast<std::size_t>(rank)];
    if (c == 1) continue;
    if (sink.saturated()) return;
    std::int64_t rem = rank;
    for (int l = 0; l < nlog; ++l) {
      const LogicalAxis& ax = axes[static_cast<std::size_t>(l)];
      const std::int64_t i = rem / strides[static_cast<std::size_t>(l)];
      rem %= strides[static_cast<std::size_t>(l)];
      ind[static_cast<std::size_t>(l)] = ax.start + i * ax.step;
    }
    sink.add(IssueKind::kCoverage,
             "tuple " + tuple_to_string(ind.data(), nlog) +
                 (c == 0 ? " is never executed"
                         : " is executed " + std::to_string(c) + " times"));
  }
}

// --- race-freedom ------------------------------------------------------------

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // exclusive
  int tid = 0;
  bool write = false;
};

// Coalesces overlapping/adjacent intervals of one (thread, rw) class.
void coalesce(std::vector<Interval>& v) {
  if (v.size() < 2) return;
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.lo < b.lo;
  });
  std::size_t out = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].lo <= v[out].hi) {
      v[out].hi = std::max(v[out].hi, v[i].hi);
    } else {
      v[++out] = v[i];
    }
  }
  v.resize(out + 1);
}

void check_races_for_map(const LoopNestPlan& plan,
                         const std::vector<ThreadProgram>& threads,
                         const AccessMap& map, std::size_t map_index,
                         IssueSink& sink) {
  const int nlog = plan.num_logical();
  const std::size_t nsegs = threads.empty() ? 0 : threads[0].seg_len.size();

  // Per-invocation starting offset within each thread's inds array, advanced
  // segment by segment.
  std::vector<std::size_t> cursor(threads.size(), 0);

  for (std::size_t seg = 0; seg < nsegs; ++seg) {
    // tensor -> intervals of every thread in this barrier-delimited segment.
    std::unordered_map<std::string, std::vector<Interval>> by_tensor;
    for (std::size_t t = 0; t < threads.size(); ++t) {
      const ThreadProgram& prog = threads[t];
      const std::int64_t ninv = prog.seg_len[seg];

      // Intervals of this (thread, segment), coalesced per access class
      // before joining the cross-thread pool (a K-reduction re-touching one
      // C block collapses to a single interval here).
      std::unordered_map<std::string, std::vector<Interval>> mine[2];
      for (std::int64_t i = 0; i < ninv; ++i) {
        const std::int64_t* ind =
            prog.inds.data() + cursor[t] + static_cast<std::size_t>(i * nlog);
        for (const TensorAccess& a : map.accesses) {
          std::int64_t off = a.base;
          for (int l = 0; l < nlog; ++l) {
            off += a.coeffs[static_cast<std::size_t>(l)] * ind[l];
          }
          auto& dst = mine[a.write ? 1 : 0][a.tensor];
          for (std::int64_t r = 0; r < a.reps; ++r) {
            const std::int64_t lo = off + r * a.rep_stride;
            dst.push_back(
                Interval{lo, lo + a.span, static_cast<int>(t), a.write});
          }
        }
      }
      cursor[t] += static_cast<std::size_t>(ninv * nlog);
      for (auto& rw : mine) {
        for (auto& [tensor, ivs] : rw) {
          coalesce(ivs);
          auto& pool = by_tensor[tensor];
          pool.insert(pool.end(), ivs.begin(), ivs.end());
        }
      }
    }

    for (auto& [tensor, ivs] : by_tensor) {
      std::sort(ivs.begin(), ivs.end(),
                [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
      for (std::size_t i = 0; i < ivs.size(); ++i) {
        for (std::size_t j = i + 1;
             j < ivs.size() && ivs[j].lo < ivs[i].hi; ++j) {
          if (ivs[i].tid == ivs[j].tid) continue;
          if (!ivs[i].write && !ivs[j].write) continue;
          if (sink.saturated()) return;
          const bool ww = ivs[i].write && ivs[j].write;
          std::ostringstream os;
          os << "map #" << map_index << " tensor '" << tensor << "' segment "
             << seg << ": threads " << ivs[i].tid << " and " << ivs[j].tid
             << (ww ? " write overlapping ranges ["
                    : " have a read/write overlap [")
             << std::max(ivs[i].lo, ivs[j].lo) << ", "
             << std::min(ivs[i].hi, ivs[j].hi)
             << ") within one barrier-delimited segment";
          sink.add(ww ? IssueKind::kRace : IssueKind::kReadAfterWrite,
                   os.str());
        }
      }
    }
  }
}

}  // namespace

const char* issue_kind_name(IssueKind k) {
  switch (k) {
    case IssueKind::kStructure: return "structure";
    case IssueKind::kCoverage: return "coverage";
    case IssueKind::kRace: return "race";
    case IssueKind::kReadAfterWrite: return "read-after-write";
  }
  return "?";
}

bool VerifyReport::has(IssueKind k) const {
  for (const Issue& i : issues) {
    if (i.kind == k) return true;
  }
  return false;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "nthreads=" << nthreads << ": OK ("
       << (coverage_checked ? "coverage" : "coverage-skipped") << ", "
       << (races_checked ? "races[" + std::to_string(maps_checked) + " maps]"
                         : "races-skipped")
       << ")";
    return os.str();
  }
  os << "nthreads=" << nthreads << ": " << issues.size() << " issue(s)";
  if (suppressed_issues > 0) os << " (+" << suppressed_issues << " suppressed)";
  for (const Issue& i : issues) {
    os << "\n  [" << issue_kind_name(i.kind) << "] " << i.message;
  }
  return os.str();
}

VerifyReport verify_programs(const LoopNestPlan& plan,
                             const std::vector<ThreadProgram>& threads,
                             const std::vector<AccessMap>& maps,
                             const VerifyOptions& opts) {
  VerifyReport report;
  report.nthreads = static_cast<int>(threads.size());
  IssueSink sink(report, opts.max_issues);

  if (threads.empty()) {
    sink.add(IssueKind::kStructure, "no thread programs recorded");
    return report;
  }
  if (plan.total_iterations() > opts.max_iterations) {
    return report;  // nothing checked; *_checked flags stay false
  }

  // Structural sanity: aligned barrier structure (live execution would
  // deadlock otherwise) and self-consistent program shapes.
  const int nlog = plan.num_logical();
  const std::size_t nsegs = threads[0].seg_len.size();
  bool structure_ok = true;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const ThreadProgram& prog = threads[t];
    if (prog.seg_len.size() != nsegs) {
      sink.add(IssueKind::kStructure,
               "thread " + std::to_string(t) + " hits " +
                   std::to_string(prog.seg_len.size() - 1) +
                   " barrier(s) but thread 0 hits " +
                   std::to_string(nsegs - 1) +
                   " — live execution would deadlock");
      structure_ok = false;
      continue;
    }
    std::int64_t sum = 0;
    for (std::int64_t s : prog.seg_len) sum += s;
    if (sum * nlog != static_cast<std::int64_t>(prog.inds.size())) {
      sink.add(IssueKind::kStructure,
               "thread " + std::to_string(t) +
                   ": segment lengths do not cover the invocation array");
      structure_ok = false;
    }
  }

  if (opts.check_coverage && structure_ok) {
    check_coverage(plan, threads, sink);
    report.coverage_checked = true;
  }
  if (opts.check_races && structure_ok) {
    for (std::size_t m = 0; m < maps.size(); ++m) {
      check_races_for_map(plan, threads, maps[m], m, sink);
    }
    report.races_checked = true;
    report.maps_checked = maps.size();
  }
  return report;
}

VerifyReport verify_plan(const LoopNestPlan& plan, int nthreads,
                         const VerifyOptions& opts) {
  PLT_CHECK(nthreads >= 1, "verify_plan: need a positive team size");
  if (plan.total_iterations() > opts.max_iterations) {
    VerifyReport report;
    report.nthreads = nthreads;
    return report;
  }
  return verify_programs(plan, parlooper::record_team_programs(plan, nthreads),
                         plan.access_maps(), opts);
}

const std::vector<int>& default_team_sizes() {
  static const std::vector<int> sizes = {1, 2, 4, 8};
  return sizes;
}

void maybe_verify_at_plan_compile(const LoopNestPlan& plan) {
  // Read per call (cheap next to a plan build) so tests can flip the knob.
  const int level =
      static_cast<int>(common::env_int("PLT_VERIFY_PLANS", 0, 0, 2));
  if (level == 0) return;

  // Memo keyed by plan address: hook callers (LoopNest construction) only
  // pass plans owned by the never-evicting plan registry, so addresses are
  // stable for the process lifetime. Re-verifies when a user attached a new
  // access map to a cached plan.
  static std::mutex mu;
  static std::unordered_map<const LoopNestPlan*, std::size_t> verified;
  const std::size_t nmaps = plan.access_maps().size();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = verified.find(&plan);
    if (it != verified.end() && it->second >= nmaps) return;
  }

  std::string failures;
  for (int n : default_team_sizes()) {
    const VerifyReport report = verify_plan(plan, n);
    if (!report.ok()) {
      failures += (failures.empty() ? "" : "\n") + report.summary();
    }
  }
  if (failures.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t& done = verified[&plan];
    done = std::max(done, nmaps);
    return;
  }
  const std::string msg = "static schedule verification failed for spec '" +
                          plan.spec_string() + "':\n" + failures;
  if (level >= 2) {
    // Not memoized: every construction of the bad plan must fail again.
    PLT_ENSURE(false, StatusCode::kInvalidArgument, msg);
  }
  PLT_LOG_WARN << msg;
  std::lock_guard<std::mutex> lock(mu);  // warn once per (plan, map set)
  std::size_t& done = verified[&plan];
  done = std::max(done, nmaps);
}

// --- mutation self-test ------------------------------------------------------

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kDropTuple: return "drop-tuple";
    case Mutation::kDuplicateTuple: return "duplicate-tuple";
    case Mutation::kCrossBarrierSwap: return "cross-barrier-swap";
  }
  return "?";
}

std::vector<ThreadProgram> mutate_programs(
    const std::vector<ThreadProgram>& threads, Mutation m, int num_logical) {
  std::vector<ThreadProgram> out = threads;
  const std::size_t nlog = static_cast<std::size_t>(num_logical);

  for (ThreadProgram& prog : out) {
    // Byte offset of each segment's first invocation within inds.
    std::vector<std::size_t> seg_begin(prog.seg_len.size(), 0);
    for (std::size_t s = 1; s < prog.seg_len.size(); ++s) {
      seg_begin[s] = seg_begin[s - 1] +
                     static_cast<std::size_t>(prog.seg_len[s - 1]) * nlog;
    }

    switch (m) {
      case Mutation::kDropTuple:
        for (std::size_t s = 0; s < prog.seg_len.size(); ++s) {
          if (prog.seg_len[s] == 0) continue;
          const std::size_t last =
              seg_begin[s] + static_cast<std::size_t>(prog.seg_len[s] - 1) * nlog;
          prog.inds.erase(prog.inds.begin() + static_cast<std::ptrdiff_t>(last),
                          prog.inds.begin() +
                              static_cast<std::ptrdiff_t>(last + nlog));
          --prog.seg_len[s];
          return out;
        }
        break;
      case Mutation::kDuplicateTuple:
        for (std::size_t s = 0; s < prog.seg_len.size(); ++s) {
          if (prog.seg_len[s] == 0) continue;
          const std::size_t first = seg_begin[s];
          const std::vector<std::int64_t> tuple(
              prog.inds.begin() + static_cast<std::ptrdiff_t>(first),
              prog.inds.begin() + static_cast<std::ptrdiff_t>(first + nlog));
          prog.inds.insert(prog.inds.begin() + static_cast<std::ptrdiff_t>(first),
                           tuple.begin(), tuple.end());
          ++prog.seg_len[s];
          return out;
        }
        break;
      case Mutation::kCrossBarrierSwap: {
        // Exchange the last invocation of one segment with the last
        // invocation of a later segment: coverage stays intact, but work
        // ordered after the barrier now runs before it.
        int first_seg = -1;
        for (std::size_t s = 0; s < prog.seg_len.size(); ++s) {
          if (prog.seg_len[s] == 0) continue;
          if (first_seg < 0) {
            first_seg = static_cast<int>(s);
            continue;
          }
          const std::size_t a =
              seg_begin[static_cast<std::size_t>(first_seg)] +
              static_cast<std::size_t>(
                  prog.seg_len[static_cast<std::size_t>(first_seg)] - 1) * nlog;
          const std::size_t b =
              seg_begin[s] + static_cast<std::size_t>(prog.seg_len[s] - 1) * nlog;
          for (std::size_t l = 0; l < nlog; ++l) {
            std::swap(prog.inds[a + l], prog.inds[b + l]);
          }
          return out;
        }
        break;
      }
    }
  }
  return {};  // no mutation site found
}

std::string mutation_self_test() {
  // Canonical two-phase nest: loop a is the phase (sequential, with a
  // barrier after each phase's parallel work), loop b the element space.
  // Phase a writes row a of tensor x and reads a 2-wide neighborhood of row
  // a-1, so correctness depends on the barrier: x[a-1] must be complete
  // before any thread starts phase a.
  parlooper::LoopNestPlan plan(
      {parlooper::LoopSpecs{0, 2, 1}, parlooper::LoopSpecs{0, 8, 1}}, "aB|");
  AccessMap map;
  map.add_write("x", {16, 1}, /*span=*/1);
  map.add_read("x", {16, 1}, /*span=*/2, /*reps=*/1, /*rep_stride=*/0,
               /*base=*/-16);

  const int nthreads = 4;
  const std::vector<ThreadProgram> team =
      parlooper::record_team_programs(plan, nthreads);

  const VerifyReport clean = verify_programs(plan, team, {map});
  if (!clean.ok()) {
    return "self-test baseline failed: " + clean.summary();
  }

  const struct {
    Mutation m;
    IssueKind expected;
  } cases[] = {
      {Mutation::kDropTuple, IssueKind::kCoverage},
      {Mutation::kDuplicateTuple, IssueKind::kCoverage},
      {Mutation::kCrossBarrierSwap, IssueKind::kReadAfterWrite},
  };
  for (const auto& c : cases) {
    const std::vector<ThreadProgram> mutated =
        mutate_programs(team, c.m, plan.num_logical());
    if (mutated.empty()) {
      return std::string("self-test: no mutation site for ") +
             mutation_name(c.m);
    }
    const VerifyReport report = verify_programs(plan, mutated, {map});
    if (report.ok()) {
      return std::string("self-test: mutation '") + mutation_name(c.m) +
             "' was NOT detected";
    }
    if (!report.has(c.expected)) {
      return std::string("self-test: mutation '") + mutation_name(c.m) +
             "' detected, but not as " + issue_kind_name(c.expected) + ": " +
             report.summary();
    }
  }
  return "";
}

}  // namespace plt::analysis
