/// \file json.h
/// A one-line JSON object writer for the harness's result records.

#ifndef ACTG_PERFBENCH_JSON_H
#define ACTG_PERFBENCH_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    char buf[40];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(std::string_view key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  /// \p json must already be valid JSON.
  JsonObject& Raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // ACTG_PERFBENCH_JSON_H
