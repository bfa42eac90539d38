#include "parlooper/loop_spec.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace plt::parlooper {

namespace {

[[noreturn]] void parse_error(const std::string& spec, std::size_t pos,
                              const std::string& what) {
  std::ostringstream os;
  os << "loop_spec_string '" << spec << "': " << what << " (at position "
     << pos << ")";
  throw std::invalid_argument(os.str());
}

}  // namespace

ParsedSpec parse_loop_spec(const std::string& spec, int num_logical_loops) {
  if (num_logical_loops < 1 || num_logical_loops > 26) {
    throw std::invalid_argument("parlooper supports 1..26 logical loops");
  }
  ParsedSpec out;
  std::vector<int> occurrence_count(static_cast<std::size_t>(num_logical_loops), 0);

  std::size_t i = 0;
  // The loop-letter section ends at '@'; the rest is the directive suffix.
  const std::size_t at = spec.find('@');
  const std::size_t letters_end = at == std::string::npos ? spec.size() : at;

  while (i < letters_end) {
    const char ch = spec[i];
    if (std::isspace(static_cast<unsigned char>(ch))) {
      ++i;
      continue;
    }
    if (ch == '|') {
      if (out.terms.empty()) parse_error(spec, i, "'|' before any loop letter");
      out.terms.back().barrier_after = true;
      ++i;
      continue;
    }
    if (!std::isalpha(static_cast<unsigned char>(ch))) {
      parse_error(spec, i, std::string("unexpected character '") + ch + "'");
    }
    LoopTerm term;
    const char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    term.logical = lower - 'a';
    if (term.logical >= num_logical_loops) {
      parse_error(spec, i, std::string("letter '") + ch +
                               "' exceeds the declared number of loops");
    }
    term.parallel = std::isupper(static_cast<unsigned char>(ch)) != 0;
    term.occurrence = occurrence_count[static_cast<std::size_t>(term.logical)]++;
    ++i;

    if (i < letters_end && spec[i] == '{') {
      if (!term.parallel)
        parse_error(spec, i, "grid annotation on a non-parallel loop letter");
      const std::size_t close = spec.find('}', i);
      if (close == std::string::npos || close >= letters_end)
        parse_error(spec, i, "unterminated '{'");
      const std::string body = spec.substr(i + 1, close - i - 1);
      const std::size_t colon = body.find(':');
      if (colon == std::string::npos || colon == 0)
        parse_error(spec, i, "grid annotation must be {R:n}, {C:n} or {L:n}");
      const char axis = static_cast<char>(
          std::toupper(static_cast<unsigned char>(body[0])));
      switch (axis) {
        case 'R': term.grid = GridAxis::kRow; break;
        case 'C': term.grid = GridAxis::kCol; break;
        case 'L': term.grid = GridAxis::kLayer; break;
        default: parse_error(spec, i, "grid axis must be R, C or L");
      }
      try {
        term.grid_ways = std::stoi(body.substr(colon + 1));
      } catch (const std::exception&) {
        parse_error(spec, i, "grid ways must be an integer");
      }
      if (term.grid_ways < 1) parse_error(spec, i, "grid ways must be >= 1");
      out.explicit_grid = true;
      i = close + 1;
    }
    out.terms.push_back(term);
  }

  if (at != std::string::npos) {
    std::string suffix = spec.substr(at + 1);
    // trim
    const auto b = suffix.find_first_not_of(" \t");
    const auto e = suffix.find_last_not_of(" \t");
    out.omp_suffix = b == std::string::npos ? "" : suffix.substr(b, e - b + 1);
  }
  const std::size_t dyn = out.omp_suffix.find("schedule(dynamic");
  if (dyn != std::string::npos) {
    out.dynamic_schedule = true;
    const std::size_t comma = out.omp_suffix.find(',', dyn);
    const std::size_t close = out.omp_suffix.find(')', dyn);
    if (comma != std::string::npos && close != std::string::npos && comma < close) {
      try {
        out.dynamic_chunk =
            std::stoll(out.omp_suffix.substr(comma + 1, close - comma - 1));
      } catch (const std::exception&) {
        out.dynamic_chunk = 1;
      }
      if (out.dynamic_chunk < 1) out.dynamic_chunk = 1;
    }
  }

  if (out.terms.empty()) {
    throw std::invalid_argument("loop_spec_string contains no loop letters");
  }
  return out;
}

std::int64_t term_step(const ParsedSpec& parsed, std::size_t term_index,
                       const std::vector<LoopSpecs>& loops) {
  const LoopTerm& t = parsed.terms[term_index];
  const LoopSpecs& spec = loops[static_cast<std::size_t>(t.logical)];
  int total = 0;
  for (const LoopTerm& u : parsed.terms)
    if (u.logical == t.logical) ++total;
  if (t.occurrence == total - 1) return spec.step;  // innermost occurrence
  return spec.block_steps[static_cast<std::size_t>(t.occurrence)];
}

std::string validate_spec(const ParsedSpec& parsed,
                          const std::vector<LoopSpecs>& loops) {
  const int n = static_cast<int>(loops.size());
  std::vector<int> counts(loops.size(), 0);
  for (const LoopTerm& t : parsed.terms) {
    if (t.logical >= n) return "loop letter exceeds declared loops";
    ++counts[static_cast<std::size_t>(t.logical)];
  }
  for (int l = 0; l < n; ++l) {
    const auto& spec = loops[static_cast<std::size_t>(l)];
    const int c = counts[static_cast<std::size_t>(l)];
    if (c == 0) {
      return std::string("logical loop '") + static_cast<char>('a' + l) +
             "' does not appear in the spec string";
    }
    if (spec.step <= 0) return "loop step must be positive";
    if (static_cast<int>(spec.block_steps.size()) < c - 1) {
      return std::string("loop '") + static_cast<char>('a' + l) + "' blocked " +
             std::to_string(c - 1) + " time(s) but only " +
             std::to_string(spec.block_steps.size()) +
             " blocking size(s) declared";
    }
    // Perfect-nesting rule of the POC (Section II-B, RULE 1).
    const std::int64_t trip = spec.end - spec.start;
    std::int64_t prev = trip;
    for (int occ = 0; occ < c; ++occ) {
      const std::int64_t s = occ == c - 1
                                 ? spec.step
                                 : spec.block_steps[static_cast<std::size_t>(occ)];
      if (s <= 0) return "blocking sizes must be positive";
      if (prev % s != 0) {
        return std::string("loop '") + static_cast<char>('a' + l) +
               "': blocking size " + std::to_string(s) +
               " does not perfectly divide enclosing extent " +
               std::to_string(prev);
      }
      prev = s;
    }
  }

  // PAR-MODE rules: explicit-grid terms may appear anywhere; implicit
  // (OpenMP collapse) parallel terms must be consecutive and unique group.
  bool in_group = false, group_done = false;
  for (const LoopTerm& t : parsed.terms) {
    const bool implicit_par = t.parallel && t.grid == GridAxis::kNone;
    if (implicit_par) {
      if (group_done) return "PAR-MODE 1 parallel letters must be consecutive";
      in_group = true;
    } else if (in_group) {
      in_group = false;
      group_done = true;
    }
  }
  if (parsed.explicit_grid) {
    for (const LoopTerm& t : parsed.terms) {
      if (t.parallel && t.grid == GridAxis::kNone) {
        return "cannot mix PAR-MODE 1 and PAR-MODE 2 in one spec";
      }
    }
    int axis_seen[4] = {0, 0, 0, 0};
    for (const LoopTerm& t : parsed.terms) {
      if (t.grid != GridAxis::kNone) {
        if (axis_seen[static_cast<int>(t.grid)]++) {
          return "each grid axis (R/C/L) may be used at most once";
        }
      }
      // Threads may own several grid cells (team smaller than the grid), so
      // they would hit a barrier a different number of times.
      if (t.barrier_after) {
        return "barrier '|' is not supported with explicit thread grids";
      }
    }
  }

  // Barriers below a parallel level would be executed a different number of
  // times per thread and deadlock; allow them only at or above it.
  bool below_parallel = false;
  for (const LoopTerm& t : parsed.terms) {
    if (below_parallel && t.barrier_after) {
      return "barrier '|' below a parallelized loop level is not executable";
    }
    if (t.parallel) below_parallel = true;
  }

  // A barrier inside a collapse group can only fire after the whole group
  // (the executor runs it after the group's last member); a marker on a
  // non-terminal member would be silently dropped, so reject it.
  for (std::size_t i = 0; i + 1 < parsed.terms.size(); ++i) {
    const LoopTerm& t = parsed.terms[i];
    const LoopTerm& nx = parsed.terms[i + 1];
    const bool t_grp = t.parallel && t.grid == GridAxis::kNone;
    const bool nx_grp = nx.parallel && nx.grid == GridAxis::kNone;
    if (t_grp && nx_grp && t.barrier_after) {
      return "barrier '|' inside a collapse group must follow its last member";
    }
  }
  return "";
}

}  // namespace plt::parlooper
