// loop_spec_string parsing and validation (Section II-B).
//
// Grammar (RULE 1 / RULE 2 of the paper):
//  * each lowercase letter a..z names a logical loop (a = loop 0, ...);
//    the order of appearance is the nesting order and the number of
//    appearances of a letter is 1 + the number of times that loop is blocked;
//  * an UPPERCASE letter parallelizes that occurrence. Consecutive uppercase
//    letters form an OpenMP `collapse` group (PAR-MODE 1);
//  * an uppercase letter may be followed by `{R:n}`, `{C:n}` or `{L:n}` to
//    request an explicit n-way decomposition along the row/column/layer axis
//    of a logical thread grid (PAR-MODE 2);
//  * `|` after a letter requests a barrier at the end of that loop level;
//  * everything after `@` is an OpenMP directive suffix appended to the
//    `#pragma omp for` (e.g. "schedule(dynamic,1)").
//
// Example: "bC{R:16}aB{C:4}cb" — loop c0 is parallelized 16-ways and loop b1
// 4-ways on a 16x4 logical thread grid (Listing 3 of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace plt::parlooper {

// The per-logical-loop declaration of Listing 1: bounds, innermost step and
// the optional blocking-size list consumed by repeated occurrences.
struct LoopSpecs {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t step = 1;
  std::vector<std::int64_t> block_steps;  // outermost-first blocking sizes

  LoopSpecs() = default;
  LoopSpecs(std::int64_t s, std::int64_t e, std::int64_t st,
            std::vector<std::int64_t> blocks = {})
      : start(s), end(e), step(st), block_steps(std::move(blocks)) {}
};

enum class GridAxis : std::uint8_t { kNone, kRow, kCol, kLayer };

struct LoopTerm {
  int logical = 0;        // 0-based logical loop id ('a' == 0)
  int occurrence = 0;     // 0 = outermost appearance of this letter
  bool parallel = false;
  GridAxis grid = GridAxis::kNone;
  int grid_ways = 0;      // for explicit decompositions
  bool barrier_after = false;
};

struct ParsedSpec {
  std::vector<LoopTerm> terms;   // outermost .. innermost
  std::string omp_suffix;        // after '@' (trimmed)
  bool explicit_grid = false;    // PAR-MODE 2 in use

  // Dynamic self-scheduling requested via "schedule(dynamic[,chunk])".
  bool dynamic_schedule = false;
  std::int64_t dynamic_chunk = 1;
};

// Parses the string; throws std::invalid_argument on malformed input.
ParsedSpec parse_loop_spec(const std::string& spec, int num_logical_loops);

// Semantic validation against the loop declarations. Returns a human-
// readable error message, or an empty string when valid. Enforces the POC's
// perfect-nesting rule (each blocking size divides its parent) plus the
// PAR-MODE 1 "consecutive uppercase" rule.
std::string validate_spec(const ParsedSpec& parsed,
                          const std::vector<LoopSpecs>& loops);

// Step size of a given term: occurrence i of a loop with n occurrences uses
// block_steps[i] for i < n-1 and the loop's base step for the innermost.
std::int64_t term_step(const ParsedSpec& parsed, std::size_t term_index,
                       const std::vector<LoopSpecs>& loops);

}  // namespace plt::parlooper
