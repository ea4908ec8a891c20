// GetEnvInt64 / ResolveBatchSize: every environment knob goes through
// one validated parser — 0, negatives, garbage, and out-of-range values
// must be rejected with an error naming the variable, not silently
// coerced (DESIGN.md §13).

#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace eslev {
namespace {

// Scoped setter so a failing assertion cannot leak ESLEV_BATCH_SIZE into
// later tests (the batch knob is process-global).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kVar[] = "ESLEV_ENV_TEST_VAR";

TEST(GetEnvInt64Test, UnsetReturnsNullopt) {
  ScopedEnv env(kVar, nullptr);
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->has_value());
}

TEST(GetEnvInt64Test, EmptyReturnsNullopt) {
  ScopedEnv env(kVar, "");
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->has_value());
}

TEST(GetEnvInt64Test, ParsesValidValue) {
  ScopedEnv env(kVar, "64");
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, 64);
}

TEST(GetEnvInt64Test, AcceptsRangeEndpoints) {
  {
    ScopedEnv env(kVar, "1");
    auto r = GetEnvInt64(kVar, 1, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(**r, 1);
  }
  {
    ScopedEnv env(kVar, "100");
    auto r = GetEnvInt64(kVar, 1, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(**r, 100);
  }
}

TEST(GetEnvInt64Test, RejectsGarbage) {
  for (const char* bad : {"abc", "12abc", "1.5", " 7 ", "0x10", "++3"}) {
    ScopedEnv env(kVar, bad);
    auto r = GetEnvInt64(kVar, 1, 100);
    EXPECT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_NE(r.status().message().find(kVar), std::string::npos)
        << "error does not name the variable: " << r.status();
  }
}

TEST(GetEnvInt64Test, RejectsOutOfRange) {
  for (const char* bad : {"0", "-1", "101", "99999999999999999999"}) {
    ScopedEnv env(kVar, bad);
    auto r = GetEnvInt64(kVar, 1, 100);
    EXPECT_FALSE(r.ok()) << "accepted '" << bad << "'";
  }
}

TEST(ResolveBatchSizeTest, ConfiguredValueWithoutOverride) {
  ScopedEnv env(kBatchSizeEnvVar, nullptr);
  auto r = ResolveBatchSize(64);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, 64u);
}

TEST(ResolveBatchSizeTest, EnvOverridesConfigured) {
  ScopedEnv env(kBatchSizeEnvVar, "256");
  auto r = ResolveBatchSize(1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, 256u);
}

TEST(ResolveBatchSizeTest, RejectsZeroConfigured) {
  ScopedEnv env(kBatchSizeEnvVar, nullptr);
  EXPECT_FALSE(ResolveBatchSize(0).ok());
}

TEST(ResolveBatchSizeTest, RejectsOversizedConfigured) {
  ScopedEnv env(kBatchSizeEnvVar, nullptr);
  EXPECT_FALSE(
      ResolveBatchSize(static_cast<size_t>(kMaxBatchSize) + 1).ok());
}

TEST(ResolveBatchSizeTest, RejectsBadEnvValues) {
  for (const char* bad : {"0", "-4", "garbage", "64k", ""}) {
    ScopedEnv env(kBatchSizeEnvVar, bad);
    auto r = ResolveBatchSize(1);
    if (std::string(bad).empty()) {
      // Empty counts as unset: fall back to the configured value.
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, 1u);
    } else {
      EXPECT_FALSE(r.ok()) << "accepted ESLEV_BATCH_SIZE='" << bad << "'";
    }
  }
}

TEST(ResolveBatchSizeTest, AcceptsMaxBatchSize) {
  ScopedEnv env(kBatchSizeEnvVar, "1048576");
  auto r = ResolveBatchSize(1);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, static_cast<size_t>(kMaxBatchSize));
}

}  // namespace
}  // namespace eslev
