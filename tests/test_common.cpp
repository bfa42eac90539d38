#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "common/aligned_buffer.hpp"
#include "common/bf16.hpp"
#include "common/cpu_features.hpp"
#include "common/env.hpp"
#include "common/math_utils.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace plt {
namespace {

TEST(Bf16, RoundTripExactForBf16Representable) {
  // Values with <= 7 explicit mantissa bits survive the round trip exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 100.0f,
                  std::ldexp(1.0f, 30)}) {
    EXPECT_EQ(bf16::from_f32(v).to_f32(), v) << v;
  }
}

TEST(Bf16, RoundToNearestEven) {
  // bf16 has a 7-bit mantissa: the step at 1.0 is 2^-7, so 1.0 + 2^-8 is
  // exactly halfway between bf16(1.0) and the next value; RNE picks the even
  // mantissa (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -8);
  EXPECT_EQ(bf16::from_f32(halfway).to_f32(), 1.0f);
  // Just above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -15);
  EXPECT_EQ(bf16::from_f32(above).to_f32(), 1.0f + std::ldexp(1.0f, -7));
}

TEST(Bf16, RelativeErrorBounded) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-100.0f, 100.0f);
    const float r = bf16::from_f32(v).to_f32();
    EXPECT_LE(std::fabs(r - v), std::fabs(v) * (1.0f / 256.0f) + 1e-38f);
  }
}

TEST(Bf16, NanAndInfPreserved) {
  EXPECT_TRUE(std::isnan(bf16::from_f32(std::nanf("")).to_f32()));
  EXPECT_TRUE(std::isinf(bf16::from_f32(INFINITY).to_f32()));
  EXPECT_LT(bf16::from_f32(-INFINITY).to_f32(), 0.0f);
}

TEST(Bf16, DtypeSizes) {
  EXPECT_EQ(dtype_size(DType::F32), 4u);
  EXPECT_EQ(dtype_size(DType::BF16), 2u);
  EXPECT_EQ(dtype_size(DType::I32), 4u);
  EXPECT_EQ(dtype_size(DType::U8), 1u);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, SplitDecorrelates) {
  Xoshiro256 parent(9);
  Xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next_u64() == child.next_u64();
  EXPECT_LT(same, 4);
}

TEST(MathUtils, PrimeFactors) {
  EXPECT_EQ(prime_factors(1), (std::vector<std::int64_t>{}));
  EXPECT_EQ(prime_factors(12), (std::vector<std::int64_t>{2, 2, 3}));
  EXPECT_EQ(prime_factors(97), (std::vector<std::int64_t>{97}));
  EXPECT_EQ(prime_factors(64), (std::vector<std::int64_t>(6, 2)));
}

TEST(MathUtils, Divisors) {
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
}

TEST(MathUtils, PrefixProductBlockings) {
  // Trip 8 with step 2: factors {2,2,2} -> blockings {4, 8, 16}.
  EXPECT_EQ(prefix_product_blockings(8, 2),
            (std::vector<std::int64_t>{4, 8, 16}));
}

TEST(MathUtils, CeilDivRoundUp) {
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_EQ(round_up(7, 4), 8);
}

TEST(AlignedBuffer, AlignmentAndValueSemantics) {
  AlignedBuffer<float> a(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kCacheLine, 0u);
  a.zero();
  a[7] = 3.0f;
  AlignedBuffer<float> b = a;  // deep copy
  b[7] = 5.0f;
  EXPECT_EQ(a[7], 3.0f);
  AlignedBuffer<float> c = std::move(a);
  EXPECT_EQ(c[7], 3.0f);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): move contract
}

TEST(CpuFeatures, ConsistentIsaSelection) {
  const CpuFeatures& f = cpu_features();
  const IsaLevel isa = effective_isa();
  if (isa >= IsaLevel::kAVX2) EXPECT_TRUE(f.avx2 && f.fma);
  if (isa >= IsaLevel::kAVX512) EXPECT_TRUE(f.avx512f);
  if (isa >= IsaLevel::kAVX512BF16) EXPECT_TRUE(f.avx512_bf16);
  if (isa >= IsaLevel::kAMXBF16) {
    EXPECT_TRUE(f.amx_tile && f.amx_bf16) << "AMX level without CPUID bits";
    EXPECT_TRUE(f.amx_os) << "AMX level without XCR0 tile state";
    EXPECT_TRUE(amx_permitted()) << "AMX level without the OS permission";
  }
  EXPECT_GE(f.logical_cores, 1);
  EXPECT_STRNE(isa_name(isa), "?");
}

// --- env helpers (centralized PLT_* parsing) ---------------------------------

TEST(Env, IntParsesValidatesAndFallsBack) {
  ::unsetenv("PLT_TEST_INT");
  EXPECT_EQ(common::env_int("PLT_TEST_INT", 42), 42);
  ::setenv("PLT_TEST_INT", "17", 1);
  EXPECT_EQ(common::env_int("PLT_TEST_INT", 42), 17);
  ::setenv("PLT_TEST_INT", "-5", 1);
  EXPECT_EQ(common::env_int("PLT_TEST_INT", 42, 0, 100), 42);  // range
  ::setenv("PLT_TEST_INT", "12abc", 1);
  EXPECT_EQ(common::env_int("PLT_TEST_INT", 42), 42);  // trailing garbage
  ::setenv("PLT_TEST_INT", "abc", 1);
  EXPECT_EQ(common::env_int("PLT_TEST_INT", 42), 42);  // not a number
  ::unsetenv("PLT_TEST_INT");
}

TEST(Env, FlagAcceptsDocumentedSpellingsOnly) {
  ::unsetenv("PLT_TEST_FLAG");
  EXPECT_TRUE(common::env_flag("PLT_TEST_FLAG", true));
  EXPECT_FALSE(common::env_flag("PLT_TEST_FLAG", false));
  for (const char* t : {"1", "true", "on"}) {
    ::setenv("PLT_TEST_FLAG", t, 1);
    EXPECT_TRUE(common::env_flag("PLT_TEST_FLAG", false)) << t;
  }
  for (const char* f : {"0", "false", "off"}) {
    ::setenv("PLT_TEST_FLAG", f, 1);
    EXPECT_FALSE(common::env_flag("PLT_TEST_FLAG", true)) << f;
  }
  ::setenv("PLT_TEST_FLAG", "yep", 1);
  EXPECT_TRUE(common::env_flag("PLT_TEST_FLAG", true));  // warn + default
  ::unsetenv("PLT_TEST_FLAG");
}

TEST(Env, EnumRejectsUnknownValues) {
  ::unsetenv("PLT_TEST_ENUM");
  EXPECT_EQ(common::env_enum("PLT_TEST_ENUM", "pool", {"omp", "pool"}),
            "pool");
  ::setenv("PLT_TEST_ENUM", "omp", 1);
  EXPECT_EQ(common::env_enum("PLT_TEST_ENUM", "pool", {"omp", "pool"}), "omp");
  ::setenv("PLT_TEST_ENUM", "pools", 1);
  EXPECT_EQ(common::env_enum("PLT_TEST_ENUM", "pool", {"omp", "pool"}),
            "pool");  // warn + default
  ::unsetenv("PLT_TEST_ENUM");
}

TEST(Env, StrPassesThrough) {
  ::unsetenv("PLT_TEST_STR");
  EXPECT_EQ(common::env_str("PLT_TEST_STR", "dflt"), "dflt");
  ::setenv("PLT_TEST_STR", "/some/path", 1);
  EXPECT_EQ(common::env_str("PLT_TEST_STR", "dflt"), "/some/path");
  ::unsetenv("PLT_TEST_STR");
}

TEST(Status, CodesNamesAndFactories) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().to_string(), "OK");
  const Status s = Status::DeadlineExceeded("too slow");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "too slow");
  EXPECT_EQ(s.to_string(), "DEADLINE_EXCEEDED: too slow");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
}

TEST(Status, StatusOrHoldsValueOrStatus) {
  StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(-1), 7);

  StatusOr<int> bad(Status::Unavailable("gone"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), RuntimeError);
}

TEST(Status, FromExceptionMapsTypesToCodes) {
  EXPECT_EQ(status_from_exception(RuntimeError(StatusCode::kInternal, "x"))
                .code(),
            StatusCode::kInternal);
  EXPECT_EQ(
      status_from_exception(RuntimeError(StatusCode::kResourceExhausted, "x"))
          .code(),
      StatusCode::kResourceExhausted);
  EXPECT_EQ(status_from_exception(std::invalid_argument("bad arg")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(status_from_exception(std::bad_alloc()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(status_from_exception(std::runtime_error("boom")).code(),
            StatusCode::kInternal);
}

TEST(Check, EnsureThrowsRuntimeErrorWithCodeAndContext) {
  PLT_ENSURE(true, StatusCode::kInternal, "never thrown");
  try {
    PLT_ENSURE(1 == 2, StatusCode::kUnavailable, "backend missing");
    FAIL() << "PLT_ENSURE did not throw";
  } catch (const RuntimeError& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    const std::string what = e.what();
    EXPECT_NE(what.find("UNAVAILABLE"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("backend missing"), std::string::npos);
  }
  // PLT_CHECK stays the API-misuse family: std::invalid_argument.
  EXPECT_THROW(PLT_CHECK(false, "misuse"), std::invalid_argument);
}

}  // namespace
}  // namespace plt
