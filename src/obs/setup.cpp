#include "obs/setup.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/export.h"
#include "util/atomic_file.h"
#include "util/error.h"

namespace actg::obs {

namespace {

/// <path minus extension>.timeline.csv, next to the JSON export.
std::string TimelinePath(const std::string& trace_path) {
  const std::size_t slash = trace_path.find_last_of("/\\");
  const std::size_t dot = trace_path.rfind('.');
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  const std::string stem =
      has_ext ? trace_path.substr(0, dot) : trace_path;
  return stem + ".timeline.csv";
}

}  // namespace

std::optional<std::string> ParseTracePath(int& argc, char** argv) {
  std::optional<std::string> path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      path = argv[i + 1];
      ++i;
      continue;
    }
    if (arg.rfind("--trace=", 0) == 0) {
      path = arg.substr(8);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  if (!path.has_value()) {
    const char* env = std::getenv("ACTG_TRACE");
    if (env != nullptr && *env != '\0') path = env;
  }
  return path;
}

ScopedTracing::ScopedTracing(int& argc, char** argv,
                             TraceOptions options) {
  if (std::optional<std::string> path = ParseTracePath(argc, argv)) {
    path_ = *path;
    session_ = std::make_unique<TraceSession>(options);
  }
}

ScopedTracing::~ScopedTracing() {
  if (session_ == nullptr) return;
  // Atomic exports: a crash mid-write must never leave a torn trace
  // artifact behind (this is a destructor — report, never throw).
  util::AtomicFile trace_out(path_);
  if (!trace_out.ok()) {
    std::cerr << "trace: cannot open " << path_ << " for writing\n";
    return;
  }
  WriteChromeTrace(trace_out.os(), *session_);
  if (const util::Error err = trace_out.Commit(); !err.ok()) {
    std::cerr << "trace: " << err.message() << "\n";
    return;
  }
  const std::string timeline_path = TimelinePath(path_);
  util::AtomicFile timeline_out(timeline_path);
  if (!timeline_out.ok()) {
    std::cerr << "trace: cannot open " << timeline_path
              << " for writing\n";
    return;
  }
  WriteTimelineCsv(timeline_out.os(), *session_);
  if (const util::Error err = timeline_out.Commit(); !err.ok()) {
    std::cerr << "trace: " << err.message() << "\n";
    return;
  }
  std::cerr << "trace: wrote " << path_ << " ("
            << session_->Events().size() << " events) and "
            << timeline_path << " (" << session_->Timeline().size()
            << " rows)\n";
}

}  // namespace actg::obs
