/// \file test_line_reader.cpp
/// The shared line reader behind every text format: tokenizing, the two
/// comment rules, line-numbered diagnostics with one wording per error
/// class, exact integers, stod-identical doubles and FormatNumber.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/line_reader.h"
#include "util/rng.h"

namespace actg::util {
namespace {

std::vector<std::string> Tokens(const LineReader& reader) {
  return {reader.tokens().begin(), reader.tokens().end()};
}

/// The diagnostic \p parse throws on a one-line input \p token.
template <typename Parse>
std::string Diagnostic(const std::string& token, Parse parse) {
  std::istringstream is("x " + token + "\n");
  LineReader reader(is, "demo");
  EXPECT_TRUE(reader.Next());
  try {
    parse(reader, reader[1]);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(LineReader, SplitsOnTheCLocaleBlanksAndSkipsBlankLines) {
  std::istringstream is("\n  a\tb\vc\fd\r\n\t \r\ne  f\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(Tokens(reader),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(Tokens(reader), (std::vector<std::string>{"e", "f"}));
  EXPECT_FALSE(reader.Next());
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_FALSE(reader.Next());
}

TEST(LineReader, CommentsRunToTheEndOfTheLineByDefault) {
  std::istringstream is("# whole line\nkey value # trailing\nkey#glued\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(Tokens(reader), (std::vector<std::string>{"key", "value"}));
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(Tokens(reader), (std::vector<std::string>{"key"}));
  EXPECT_FALSE(reader.Next());
}

TEST(LineReader, WholeLineCommentsKeepAnInnerHash) {
  std::istringstream is("  # whole line\nqrec detail #3 here\n");
  LineReader reader(is, "demo", LineReader::Comments::kWholeLine);
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(Tokens(reader),
            (std::vector<std::string>{"qrec", "detail", "#3", "here"}));
  EXPECT_FALSE(reader.Next());
}

TEST(LineReader, DiagnosticsCountEveryPhysicalLine) {
  std::istringstream is("demo v1\n\n# note\nwhat 1\n");
  LineReader reader(is, "demo");
  reader.ExpectHeader("demo v1");
  ASSERT_TRUE(reader.Next());
  try {
    reader.UnknownDirective();
    FAIL() << "expected a throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "demo line 4: unknown directive 'what'");
  }
  EXPECT_FALSE(reader.Next());
}

TEST(LineReader, NextBeforeEndStopsAtEndWithoutReadingAhead) {
  std::istringstream is("a 1\nend\nafter\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.NextBeforeEnd());
  EXPECT_EQ(reader.directive(), "a");
  EXPECT_FALSE(reader.NextBeforeEnd());
  // The line after 'end' is still the stream's, for an embedding format.
  std::string rest;
  std::getline(is, rest);
  EXPECT_EQ(rest, "after");
  try {
    reader.NextBeforeEnd();
    FAIL() << "expected a throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "demo line 2: missing 'end'");
  }
}

TEST(LineReader, HeaderAndArityUseThePinnedWordings) {
  {
    std::istringstream is("demo v2\n");
    LineReader reader(is, "demo");
    try {
      reader.ExpectHeader("demo v1");
      FAIL() << "expected a throw";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "demo line 1: expected header 'demo v1'");
    }
  }
  {
    std::istringstream is("demo v1 extra\n");
    LineReader reader(is, "demo");
    EXPECT_THROW(reader.ExpectHeader("demo v1"), InvalidArgument);
  }
  std::istringstream is("pair 1 2 3\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.Next());
  EXPECT_TRUE(reader.Is("pair 1 2 3"));
  EXPECT_FALSE(reader.Is("pair 1 2"));
  EXPECT_NO_THROW(reader.Operands(3, "<a> <b> <c>"));
  EXPECT_NO_THROW(reader.Operands(1, LineReader::kAny, "<a> ..."));
  try {
    reader.Operands(2, "<a> <b>");
    FAIL() << "expected a throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "demo line 1: pair needs <a> <b>");
  }
  EXPECT_THROW(reader.Operand("<a>"), InvalidArgument);
}

TEST(LineReader, OneWordingPerErrorClass) {
  const auto number = [](const LineReader& r, const std::string& t) {
    r.Number(t);
  };
  const auto u64 = [](const LineReader& r, const std::string& t) {
    r.U64(t);
  };
  const auto integer = [](const LineReader& r, const std::string& t) {
    r.Int(t);
  };
  const auto hex = [](const LineReader& r, const std::string& t) {
    r.Hex(t);
  };
  const auto flag = [](const LineReader& r, const std::string& t) {
    r.Flag(t);
  };
  const std::string at = "demo line 1: ";
  EXPECT_EQ(Diagnostic("twelve", number),
            at + "malformed number: expected a number, got 'twelve'");
  EXPECT_EQ(Diagnostic("twelve", u64),
            at + "malformed number: expected a number, got 'twelve'");
  EXPECT_EQ(Diagnostic("12x", number),
            at + "malformed number: trailing garbage in '12x'");
  EXPECT_EQ(Diagnostic("12x", u64),
            at + "malformed number: trailing garbage in '12x'");
  EXPECT_EQ(Diagnostic("1e999", number),
            at + "number out of range: '1e999'");
  EXPECT_EQ(Diagnostic("18446744073709551616", u64),
            at + "number out of range: '18446744073709551616'");
  EXPECT_EQ(Diagnostic("3000000000", integer),
            at + "number out of range: '3000000000'");
  EXPECT_EQ(Diagnostic("-4", u64),
            at + "expected a non-negative integer, got '-4'");
  EXPECT_EQ(Diagnostic("1e3", u64),
            at + "expected a non-negative integer, got '1e3'");
  EXPECT_EQ(Diagnostic("12.0", u64),
            at + "expected a non-negative integer, got '12.0'");
  EXPECT_EQ(Diagnostic("1.5", integer),
            at + "expected an integer, got '1.5'");
  EXPECT_EQ(Diagnostic("xyz", hex), at + "expected a hex integer, got 'xyz'");
  EXPECT_EQ(Diagnostic("2", flag), at + "expected 0 or 1, got '2'");
  EXPECT_EQ(Diagnostic("01", flag), at + "expected 0 or 1, got '01'");
  EXPECT_EQ(Diagnostic("+1.5", number),
            at + "malformed number: expected a number, got '+1.5'");
}

TEST(LineReader, IntegersAreExact) {
  std::istringstream is("x\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.U64("9408751927250898473"), 9408751927250898473ULL);
  EXPECT_EQ(reader.U64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(reader.U64("0"), 0u);
  EXPECT_EQ(reader.Int("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(reader.Int("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(reader.Hex("3ff0000000000000"), 0x3ff0000000000000ULL);
  EXPECT_EQ(reader.Hex("DEADBEEF"), 0xDEADBEEFULL);
  EXPECT_TRUE(reader.Flag("1"));
  EXPECT_FALSE(reader.Flag("0"));
  EXPECT_EQ(ParseU64("9408751927250898473"), 9408751927250898473ULL);
  for (const char* bad : {"", "-4", "+4", " 4", "4 ", "1e3", "12.0", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseU64(bad).has_value()) << bad;
  }
}

TEST(LineReader, NumbersReadToTheSameBitsAsStod) {
  std::istringstream is("x\n");
  LineReader reader(is, "demo");
  ASSERT_TRUE(reader.Next());
  std::vector<std::string> tokens = {
      "0",     "-0",   "0.1",    "1",      "2.5",     "-3.75", "1e-3",
      "1e+06", "5.",   ".5",     "1E3",    "0.30000000000000004",
      "394.19500718533283",      "1.7976931348623157e308", "inf",
      "-inf",  "infinity"};
  Random rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double value =
        rng.Uniform(-1e6, 1e6) * std::pow(10.0, rng.UniformInt(-12, 12));
    std::ostringstream six, exact;
    six << value;
    exact.precision(std::numeric_limits<double>::max_digits10);
    exact << value;
    tokens.push_back(six.str());
    tokens.push_back(exact.str());
  }
  for (const std::string& token : tokens) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.Number(token)),
              std::bit_cast<std::uint64_t>(std::stod(token)))
        << token;
  }
  EXPECT_TRUE(std::isnan(reader.Number("nan")));
}

TEST(FormatNumber, PrintsTheStreamDefaultWhenItRoundTrips) {
  Random rng(3);
  std::vector<double> values = {0.1,  0.5,   1.0,  0.01, 2.0,    1e6,
                                -0.0, 1e-30, 1e21, 0.25, 1234.5, 0.1000001};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.Uniform(0.0, 1.0));
    values.push_back(std::round(rng.Uniform(0.0, 1e4)) / 1000.0);
  }
  std::size_t short_form = 0;
  for (const double value : values) {
    const std::string text = FormatNumber(value);
    std::ostringstream stream;
    stream << value;
    const double back = std::stod(text);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << text;
    if (std::stod(stream.str()) == value) {
      EXPECT_EQ(text, stream.str());
      ++short_form;
    } else {
      std::ostringstream exact;
      exact.precision(std::numeric_limits<double>::max_digits10);
      exact << value;
      EXPECT_EQ(text, exact.str());
    }
  }
  EXPECT_GT(short_form, 2000u);
  // The stream's sticky precision does not leak in.
  std::ostringstream sticky;
  sticky.precision(2);
  sticky << FormatNumber(0.123456);
  EXPECT_EQ(sticky.str(), "0.123456");
  EXPECT_EQ(FormatNumber(0.1000001), "0.10000009999999999");
}

TEST(ParseLines, TurnsTheBodysInvalidArgumentIntoTheError) {
  const auto body = [](LineReader& reader) {
    reader.ExpectHeader("demo v1");
    reader.NextBeforeEnd();
    return reader.U64(reader.Operand("<n>"));
  };
  {
    std::istringstream is("demo v1\nn 42\n");
    const Expected<std::uint64_t> parsed = ParseLines(is, "demo", body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), 42u);
  }
  std::istringstream is("demo v1\nn -1\n");
  const Expected<std::uint64_t> parsed = ParseLines(is, "demo", body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message(),
            "demo line 2: expected a non-negative integer, got '-1'");
}

}  // namespace
}  // namespace actg::util
