/// \file test_cli_common.cpp
/// The shared command-line helpers of the actg tools.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "cli_common.h"

namespace actg::cli {
namespace {

TEST(ParseCount, AcceptsExactlyTheNonNegativeIntegers) {
  EXPECT_EQ(ParseCount("0"), 0u);
  EXPECT_EQ(ParseCount("12"), 12u);
  EXPECT_EQ(ParseCount("9408751927250898473"), 9408751927250898473ULL);
  EXPECT_EQ(ParseCount("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
}

TEST(ParseCount, RejectsSignsFractionsGarbageAndOverflow) {
  // "-4" used to wrap to 18446744073709551612.
  for (const char* bad : {"-4", "-0", "+4", "1e3", "12.0", "12x", "", " 4",
                          "twelve", "18446744073709551616"}) {
    EXPECT_FALSE(ParseCount(bad).has_value()) << bad;
  }
}

TEST(CountFlag, FallsBackOnANegativeValue) {
  std::string tool = "tool", flag = "--cases", value = "-4";
  char* argv[] = {tool.data(), flag.data(), value.data()};
  EXPECT_EQ(CountFlag(3, argv, "--cases", 7), 7u);
}

}  // namespace
}  // namespace actg::cli
