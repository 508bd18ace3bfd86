#include "util/line_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>
#include <utility>

namespace actg::util {

namespace {

constexpr std::string_view kBlanks = " \t\n\v\f\r";

/// std::from_chars over all of \p token: errc{} only when every
/// character was consumed.
template <typename T, typename... Base>
std::errc ParseWhole(std::string_view token, T& value, Base... base) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, base...);
  if (ec != std::errc{}) return ec;
  return ptr == end ? std::errc{} : std::errc::invalid_argument;
}

std::string Quoted(std::string_view token) {
  // Appended: GCC 12.2 flags `"'" + std::string(token)` with a false
  // -Wrestrict.
  std::string quoted = "'";
  quoted.append(token);
  quoted += '\'';
  return quoted;
}

}  // namespace

std::optional<std::uint64_t> ParseU64(std::string_view token) {
  std::uint64_t value = 0;
  if (ParseWhole(token, value, 10) != std::errc{}) return std::nullopt;
  return value;
}

std::string FormatNumber(double value) {
  char text[64];
  char* end = std::to_chars(text, text + sizeof text, value,
                            std::chars_format::general, 6)
                  .ptr;
  double back = 0.0;
  ParseWhole(std::string_view(text, end - text), back);
  if (back != value && !(std::isnan(back) && std::isnan(value))) {
    end = std::to_chars(text, text + sizeof text, value,
                        std::chars_format::general,
                        std::numeric_limits<double>::max_digits10)
              .ptr;
  }
  return std::string(text, end);
}

LineReader::LineReader(std::istream& is, std::string format,
                       Comments comments)
    : is_(is), format_(std::move(format)), comments_(comments) {}

bool LineReader::Next() {
  while (std::getline(is_, text_)) {
    ++line_number_;
    std::string_view rest = text_;
    if (comments_ == Comments::kToEndOfLine) {
      rest = rest.substr(0, rest.find('#'));
    }
    size_ = 0;
    std::size_t begin = rest.find_first_not_of(kBlanks);
    while (begin != std::string_view::npos) {
      const std::size_t end =
          std::min(rest.find_first_of(kBlanks, begin), rest.size());
      if (size_ == tokens_.size()) tokens_.emplace_back();
      tokens_[size_++].assign(rest.substr(begin, end - begin));
      begin = rest.find_first_not_of(kBlanks, end);
    }
    if (size_ == 0) continue;
    if (comments_ == Comments::kWholeLine && tokens_[0][0] == '#') continue;
    return true;
  }
  size_ = 0;
  return false;
}

bool LineReader::NextBeforeEnd() {
  if (!Next()) Fail("missing 'end'");
  return directive() != "end";
}

const std::string& LineReader::operator[](std::size_t i) const {
  ACTG_ASSERT(i < size_, "LineReader: token index past the line");
  return tokens_[i];
}

bool LineReader::Is(std::string_view text) const {
  std::string joined;
  for (const std::string& token : tokens()) {
    if (!joined.empty()) joined += ' ';
    joined += token;
  }
  return size_ > 0 && joined == text;
}

void LineReader::ExpectHeader(std::string_view header) {
  if (!Next() || !Is(header)) Fail("expected header " + Quoted(header));
}

void LineReader::Operands(std::size_t min, std::size_t max,
                          std::string_view usage) const {
  if (size_ - 1 < min || size_ - 1 > max) {
    Fail(directive() + " needs " + std::string(usage));
  }
}

double LineReader::Number(std::string_view token) const {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::invalid_argument) {
    Fail("malformed number: expected a number, got " + Quoted(token));
  }
  if (ec == std::errc::result_out_of_range) {
    Fail("number out of range: " + Quoted(token));
  }
  if (ptr != end) {
    Fail("malformed number: trailing garbage in " + Quoted(token));
  }
  return value;
}

template <typename T>
T LineReader::Integer(std::string_view token, int base,
                      std::string_view expected) const {
  T value{};
  const std::errc ec = ParseWhole(token, value, base);
  if (ec == std::errc{}) return value;
  if (ec == std::errc::result_out_of_range) {
    Fail("number out of range: " + Quoted(token));
  }
  // A decimal token that is not a number at all fails as one.
  if (base == 10) Number(token);
  Fail(std::string(expected) + ", got " + Quoted(token));
}

std::uint64_t LineReader::U64(std::string_view token) const {
  return Integer<std::uint64_t>(token, 10, "expected a non-negative integer");
}

int LineReader::Int(std::string_view token) const {
  return Integer<int>(token, 10, "expected an integer");
}

std::uint64_t LineReader::Hex(std::string_view token) const {
  return Integer<std::uint64_t>(token, 16, "expected a hex integer");
}

bool LineReader::Flag(std::string_view token) const {
  if (token != "0" && token != "1") {
    Fail("expected 0 or 1, got " + Quoted(token));
  }
  return token == "1";
}

void LineReader::Fail(std::string_view message) const {
  throw InvalidArgument(format_ + " line " + std::to_string(line_number_) +
                        ": " + std::string(message));
}

void LineReader::UnknownDirective() const {
  Fail("unknown directive " + Quoted(directive()));
}

}  // namespace actg::util
