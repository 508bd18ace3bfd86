/// \file line_reader.h
/// The one line reader behind every text format of the library: ctg-v1,
/// platform-v1, faults-v1, serve-v1, campaign-v1, checkpoint-v2 and
/// fuzzcase-v1. Each parser keeps only its directive table; the grammar
/// they share (README "Text formats") lives here:
///
///  * one directive per line, tokens split on the C locale's blanks,
///    blank lines skipped, a '#' comment running to the end of the line
///    (Comments::kWholeLine: only a line whose first token starts with
///    '#' is one — checkpoint qrec details may contain a '#');
///  * numbers through std::from_chars, the same bits as std::stod for
///    every token both read in full; integers exact, never through a
///    double, so a float spelling ("12.0", "1e3") is rejected;
///  * every failure an InvalidArgument reading "<format> line N: ...",
///    N counting every physical line consumed.
///
/// Next() consumes one line at a time and never reads ahead, so a format
/// embeds another by handing its reader to the embedded format's Read*
/// function (fuzzcase's faults, graph and platform sections), whose
/// diagnostics then carry the embedding file's line numbers.

#ifndef ACTG_UTIL_LINE_READER_H
#define ACTG_UTIL_LINE_READER_H

#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.h"

namespace actg::util {

/// All of \p token as an unsigned 64-bit decimal (no sign, fraction,
/// exponent or blank); nullopt otherwise, out of range included.
std::optional<std::uint64_t> ParseU64(std::string_view token);

/// \p value as text that reads back to the same double: the 6
/// significant digits a default std::ostream prints when they do,
/// max_digits10 digits otherwise, whatever a stream's precision.
std::string FormatNumber(double value);

/// Tokenized, line-counted view of one text stream.
class LineReader {
 public:
  /// Where a '#' comment may start.
  enum class Comments { kToEndOfLine, kWholeLine };

  /// Upper bound for Operands() on variadic directives.
  static constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();

  LineReader(std::istream& is, std::string format,
             Comments comments = Comments::kToEndOfLine);

  /// Advances to the next line holding a token; false at end of input.
  bool Next();
  /// Next() for a directive of the format's body: false at its closing
  /// 'end' line, "missing 'end'" at the end of input.
  bool NextBeforeEnd();

  /// Tokens of the current line, valid until the next Next().
  std::size_t size() const { return size_; }
  const std::string& operator[](std::size_t i) const;
  std::span<const std::string> tokens() const { return {tokens_.data(), size_}; }
  const std::string& directive() const { return (*this)[0]; }

  /// True when the current line's tokens, space-joined, are \p text.
  bool Is(std::string_view text) const;
  /// Next(), then "expected header '<header>'" unless it Is(\p header).
  void ExpectHeader(std::string_view header);

  /// "<directive> needs <usage>" unless the line holds \p min to \p max
  /// operands (tokens after the directive).
  void Operands(std::size_t min, std::size_t max,
                std::string_view usage) const;
  void Operands(std::size_t count, std::string_view usage) const {
    Operands(count, count, usage);
  }
  /// The one operand of a "<directive> <value>" line.
  const std::string& Operand(std::string_view usage) const {
    Operands(1, usage);
    return (*this)[1];
  }

  /// Value parses, one wording per error class:
  ///   malformed number: expected a number, got '<t>'
  ///   malformed number: trailing garbage in '<t>'
  ///   number out of range: '<t>'
  ///   expected a non-negative integer, got '<t>'   (U64)
  ///   expected an integer, got '<t>'               (Int)
  ///   expected a hex integer, got '<t>'            (Hex)
  ///   expected 0 or 1, got '<t>'                   (Flag)
  double Number(std::string_view token) const;
  std::uint64_t U64(std::string_view token) const;
  int Int(std::string_view token) const;
  std::uint64_t Hex(std::string_view token) const;
  bool Flag(std::string_view token) const;

  /// Throws InvalidArgument("<format> line N: <message>").
  [[noreturn]] void Fail(std::string_view message) const;
  /// Fail("unknown directive '<directive>'").
  [[noreturn]] void UnknownDirective() const;

 private:
  template <typename T>
  T Integer(std::string_view token, int base, std::string_view expected) const;

  std::istream& is_;
  std::string format_;
  Comments comments_;
  int line_number_ = 0;
  std::string text_;
  /// Reused across lines: only the first size_ entries are current.
  std::vector<std::string> tokens_;
  std::size_t size_ = 0;
};

/// Runs \p body on a LineReader over \p is: its result, or the
/// InvalidArgument it throws as the failure. The one boundary between
/// the throwing parser bodies and the value-semantic Parse* functions.
template <typename Body>
auto ParseLines(std::istream& is, std::string format, Body body,
                LineReader::Comments comments =
                    LineReader::Comments::kToEndOfLine)
    -> Expected<std::invoke_result_t<Body&, LineReader&>> {
  try {
    LineReader reader(is, std::move(format), comments);
    return body(reader);
  } catch (const InvalidArgument& e) {
    return Error::Invalid(e.what());
  }
}

}  // namespace actg::util

#endif  // ACTG_UTIL_LINE_READER_H
