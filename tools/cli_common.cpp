#include "cli_common.h"

#include <iostream>

#include <sys/resource.h>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/line_reader.h"

namespace actg::cli {

std::optional<std::string> FindFlag(int argc, char** argv,
                                    std::string_view flag) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag && i + 1 < argc) return std::string(argv[i + 1]);
    if (arg.rfind(prefix, 0) == 0) {
      return std::string(arg.substr(prefix.size()));
    }
  }
  return std::nullopt;
}

std::string StringFlag(int argc, char** argv, std::string_view flag,
                       std::string fallback) {
  return FindFlag(argc, argv, flag).value_or(std::move(fallback));
}

std::size_t CountFlag(int argc, char** argv, std::string_view flag,
                      std::size_t fallback) {
  const std::optional<std::string> value = FindFlag(argc, argv, flag);
  if (!value.has_value()) return fallback;
  return ParseCount(*value).value_or(fallback);
}

std::uint64_t SeedFlag(int argc, char** argv, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(CountFlag(
      argc, argv, "--seed", static_cast<std::size_t>(fallback)));
}

std::optional<std::size_t> ParseCount(const std::string& token) {
  return util::ParseU64(token);
}

std::optional<std::string> TakeFlag(int& argc, char** argv,
                                    std::string_view flag) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    int consumed = 0;
    std::string value;
    if (arg == flag && i + 1 < argc) {
      value = argv[i + 1];
      consumed = 2;
    } else if (arg.rfind(prefix, 0) == 0) {
      value = std::string(arg.substr(prefix.size()));
      consumed = 1;
    }
    if (consumed == 0) continue;
    for (int j = i + consumed; j < argc; ++j) argv[j - consumed] = argv[j];
    argc -= consumed;
    return value;
  }
  return std::nullopt;
}

bool TakeSwitch(int& argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != flag) continue;
    for (int j = i + 1; j < argc; ++j) argv[j - 1] = argv[j];
    --argc;
    return true;
  }
  return false;
}

int Fail(std::string_view tool, std::string_view message, int status) {
  std::cerr << tool << ": " << message << "\n";
  return status;
}

ReportSink::ReportSink(const std::string& path) : path_(path) {
  if (path_.empty()) {
    os_ = &std::cout;
    ok_ = true;
    return;
  }
  file_.open(path_);
  os_ = &file_;
  ok_ = bool(file_);
}

int DumpMetrics(std::string_view tool, const std::string& path,
                const runtime::Metrics& metrics) {
  if (path.empty()) return 0;
  util::AtomicFile file(path);
  if (!file.ok()) return Fail(tool, "cannot write '" + path + "'");
  metrics.WriteText(file.os());
  const util::Error err = file.Commit();
  if (!err.ok()) return Fail(tool, err.message());
  return 0;
}

long MaxRssKb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;
}

}  // namespace actg::cli
