/// \file cli_common.h
/// Shared command-line plumbing for the actg front ends.
///
/// Every tool and bench grew its own copy of the same three helpers —
/// a string-flag scanner, a numeric-flag scanner and an output-file
/// opener — with subtly different spellings and diagnostics. This
/// header is the one copy: actg_cli, actg_serve, actg_fuzz,
/// actg_campaign and the bench binaries all parse --jobs / --seed /
/// --report / --metrics / --trace (and their tool-specific flags)
/// through it, and all failures print the one pinned diagnostic format
///
///   <tool>: <message>
///
/// Flag grammar, shared by every helper: `--flag value` or
/// `--flag=value`, first occurrence wins (matching
/// runtime::ParseJobs).

#ifndef ACTG_TOOLS_CLI_COMMON_H
#define ACTG_TOOLS_CLI_COMMON_H

#include <cstdint>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "runtime/metrics.h"

namespace actg::cli {

/// First `--flag value` / `--flag=value` occurrence; nullopt when the
/// flag is absent (or present without a value).
std::optional<std::string> FindFlag(int argc, char** argv,
                                    std::string_view flag);

/// FindFlag with a fallback.
std::string StringFlag(int argc, char** argv, std::string_view flag,
                       std::string fallback);

/// Numeric FindFlag; \p fallback when absent or unparsable (the lenient
/// semantics every bench always had).
std::size_t CountFlag(int argc, char** argv, std::string_view flag,
                      std::size_t fallback);

/// CountFlag("--seed") as a 64-bit seed.
std::uint64_t SeedFlag(int argc, char** argv, std::uint64_t fallback);

/// Strict non-negative integer parse of one token, the text formats'
/// exact integer rule (util::ParseU64): nullopt on a sign ("-4"), a
/// fraction or exponent, garbage, trailing characters or a value past
/// 64 bits (positional arguments, where a typo must not silently become
/// a default or wrap around).
std::optional<std::size_t> ParseCount(const std::string& token);

/// Removes the first `--flag value` / `--flag=value` from argv
/// (compacting it) and returns the value; nullopt — and argv untouched
/// — when absent. For tools that mix flags with positional arguments.
std::optional<std::string> TakeFlag(int& argc, char** argv,
                                    std::string_view flag);

/// Removes a bare `--flag` switch from argv; true when it was present.
bool TakeSwitch(int& argc, char** argv, std::string_view flag);

/// The pinned diagnostic: prints "<tool>: <message>" to stderr and
/// returns \p status, so call sites read `return Fail(...)`.
int Fail(std::string_view tool, std::string_view message, int status = 1);

/// Where a deterministic report goes: the --report file when given,
/// stdout otherwise. ok() is false when the file cannot be opened.
class ReportSink {
 public:
  /// Empty \p path selects stdout.
  explicit ReportSink(const std::string& path);

  bool ok() const { return ok_; }
  std::ostream& os() { return *os_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream file_;
  std::ostream* os_;
  bool ok_;
};

/// Writes the registry's text dump to \p path when non-empty. Returns 0,
/// or Fail(tool, ...) when the file cannot be written.
int DumpMetrics(std::string_view tool, const std::string& path,
                const runtime::Metrics& metrics);

/// Peak resident set of this process in KiB (getrusage), or 0 where the
/// platform does not report it.
long MaxRssKb();

}  // namespace actg::cli

#endif  // ACTG_TOOLS_CLI_COMMON_H
