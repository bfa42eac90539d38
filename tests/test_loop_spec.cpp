#include <gtest/gtest.h>

#include "parlooper/loop_spec.hpp"

namespace plt::parlooper {
namespace {

std::vector<LoopSpecs> gemm_like_loops() {
  // a: 0..8 step 1 (blockable by {4, 2}); b: 0..16 step 2 ({8, 4});
  // c: 0..12 step 3 ({6}).
  return {LoopSpecs{0, 8, 1, {4, 2}}, LoopSpecs{0, 16, 2, {8, 4}},
          LoopSpecs{0, 12, 3, {6}}};
}

TEST(LoopSpecParse, SimpleOrder) {
  ParsedSpec p = parse_loop_spec("abc", 3);
  ASSERT_EQ(p.terms.size(), 3u);
  EXPECT_EQ(p.terms[0].logical, 0);
  EXPECT_EQ(p.terms[1].logical, 1);
  EXPECT_EQ(p.terms[2].logical, 2);
  for (const auto& t : p.terms) {
    EXPECT_FALSE(t.parallel);
    EXPECT_EQ(t.occurrence, 0);
  }
}

TEST(LoopSpecParse, BlockingOccurrences) {
  ParsedSpec p = parse_loop_spec("bcabcb", 3);
  ASSERT_EQ(p.terms.size(), 6u);
  // b appears 3x => blocked twice; occurrences are numbered in order.
  EXPECT_EQ(p.terms[0].logical, 1);
  EXPECT_EQ(p.terms[0].occurrence, 0);
  EXPECT_EQ(p.terms[3].logical, 1);
  EXPECT_EQ(p.terms[3].occurrence, 1);
  EXPECT_EQ(p.terms[5].logical, 1);
  EXPECT_EQ(p.terms[5].occurrence, 2);
}

TEST(LoopSpecParse, UppercaseMarksParallel) {
  ParsedSpec p = parse_loop_spec("bcaBCb", 3);
  EXPECT_FALSE(p.terms[0].parallel);
  EXPECT_TRUE(p.terms[3].parallel);
  EXPECT_TRUE(p.terms[4].parallel);
  EXPECT_FALSE(p.terms[5].parallel);
}

TEST(LoopSpecParse, GridAnnotations) {
  ParsedSpec p = parse_loop_spec("bC{R:16}aB{C:4}cb", 3);
  EXPECT_TRUE(p.explicit_grid);
  ASSERT_EQ(p.terms.size(), 6u);
  EXPECT_EQ(p.terms[1].grid, GridAxis::kRow);
  EXPECT_EQ(p.terms[1].grid_ways, 16);
  EXPECT_EQ(p.terms[3].grid, GridAxis::kCol);
  EXPECT_EQ(p.terms[3].grid_ways, 4);
}

TEST(LoopSpecParse, DirectiveSuffix) {
  ParsedSpec p = parse_loop_spec("bcaBCb @ schedule(dynamic,1)", 3);
  EXPECT_EQ(p.omp_suffix, "schedule(dynamic,1)");
  EXPECT_TRUE(p.dynamic_schedule);
  EXPECT_EQ(p.dynamic_chunk, 1);

  ParsedSpec p2 = parse_loop_spec("aBc @ schedule(dynamic,8)", 3);
  EXPECT_EQ(p2.dynamic_chunk, 8);

  ParsedSpec p3 = parse_loop_spec("aBc @ schedule(static)", 3);
  EXPECT_FALSE(p3.dynamic_schedule);
}

TEST(LoopSpecParse, BarrierMarksPrecedingTerm) {
  ParsedSpec p = parse_loop_spec("a|Bc", 3);
  EXPECT_TRUE(p.terms[0].barrier_after);
  EXPECT_FALSE(p.terms[1].barrier_after);
}

TEST(LoopSpecParse, Errors) {
  EXPECT_THROW(parse_loop_spec("", 3), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("abd", 3), std::invalid_argument);  // d > c
  EXPECT_THROW(parse_loop_spec("a{R:4}bc", 3), std::invalid_argument);  // grid on lowercase
  EXPECT_THROW(parse_loop_spec("A{R:}bc", 3), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("A{X:4}bc", 3), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("A{R:4bc", 3), std::invalid_argument);   // unterminated
  EXPECT_THROW(parse_loop_spec("|abc", 3), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("a?c", 3), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("abc", 0), std::invalid_argument);
  EXPECT_THROW(parse_loop_spec("abc", 27), std::invalid_argument);
}

TEST(LoopSpecValidate, AcceptsWellFormed) {
  auto loops = gemm_like_loops();
  for (const char* s : {"abc", "bca", "aBC", "bcaBCb", "cabCBa"}) {
    ParsedSpec p = parse_loop_spec(s, 3);
    EXPECT_EQ(validate_spec(p, loops), "") << s;
  }
}

TEST(LoopSpecValidate, MissingLoopRejected) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("ab", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, TooFewBlockingSizesRejected) {
  auto loops = gemm_like_loops();
  // c has 1 blocking size; "ccc" needs 2.
  ParsedSpec p = parse_loop_spec("abccc", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, NonPerfectNestingRejected) {
  // b trip 16, block 8; blocking 5 does not divide 16.
  std::vector<LoopSpecs> loops = {LoopSpecs{0, 8, 1, {}},
                                  LoopSpecs{0, 16, 2, {5}},
                                  LoopSpecs{0, 12, 3, {}}};
  ParsedSpec p = parse_loop_spec("abbc", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, NonConsecutiveParMode1Rejected) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("AbC", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, MixedParModesRejected) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("A{R:2}Bc", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, DuplicateGridAxisRejected) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("A{R:2}B{R:2}c", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecValidate, BarrierBelowParallelRejected) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("Abc|", 3);
  EXPECT_NE(validate_spec(p, loops), "");
}

TEST(LoopSpecTermStep, BlockingListConsumedInOrder) {
  auto loops = gemm_like_loops();
  ParsedSpec p = parse_loop_spec("bbbac", 3);  // b blocked twice
  EXPECT_EQ(term_step(p, 0, loops), 8);   // first blocking size
  EXPECT_EQ(term_step(p, 1, loops), 4);   // second blocking size
  EXPECT_EQ(term_step(p, 2, loops), 2);   // base step
  EXPECT_EQ(term_step(p, 3, loops), 1);   // a base step
}

}  // namespace
}  // namespace plt::parlooper
