/// \file setup.h
/// Command-line wiring of the tracing subsystem for the bench targets
/// and the CLI.
///
/// Every traced bench main and the CLI construct one ScopedTracing from
/// their argc/argv. When --trace <file> (or --trace=<file>, or the
/// ACTG_TRACE environment variable) names an output file, it owns a
/// TraceSession, which the main hands to the work it traces (session()),
/// and on destruction writes the Chrome trace_event JSON to <file> and
/// the per-iteration timeline CSV next to it as <file minus extension>
/// .timeline.csv. Without the flag session() is null and the
/// instrumented stages stay on their null-session fast path.
///
/// The --trace arguments are removed from argv so downstream parsers
/// (google-benchmark's Initialize in particular) never see them.

#ifndef ACTG_OBS_SETUP_H
#define ACTG_OBS_SETUP_H

#include <memory>
#include <optional>
#include <string>

#include "obs/trace.h"

namespace actg::obs {

/// Extracts --trace <file> / --trace=<file> from argv (compacting argc/
/// argv in place) and falls back to the ACTG_TRACE environment
/// variable; nullopt when tracing was not requested.
std::optional<std::string> ParseTracePath(int& argc, char** argv);

/// RAII trace setup for a main(): parses the trace path, owns the
/// session and writes both exports on destruction (notes go to stderr
/// so bench stdout is untouched).
class ScopedTracing {
 public:
  ScopedTracing(int& argc, char** argv, TraceOptions options = {});
  ~ScopedTracing();

  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

  /// The owned session, or nullptr when tracing was not requested.
  TraceSession* session() { return session_.get(); }

 private:
  std::string path_;
  std::unique_ptr<TraceSession> session_;
};

}  // namespace actg::obs

#endif  // ACTG_OBS_SETUP_H
