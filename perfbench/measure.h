/// \file measure.h
/// The untraced run: one repetition of a workload through the
/// program's entry points (campaign::Campaign::Run /
/// serve::Server::Run), reported as one JSON record on stdout.

#ifndef ACTG_PERFBENCH_MEASURE_H
#define ACTG_PERFBENCH_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "workloads.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();
/// User + system CPU seconds of this process.
double CpuSeconds();
/// High-water resident set of this process, MB.
double PeakRssMb();
/// 64-bit FNV-1a of \p text, as 16 hex digits.
std::string Digest(std::string_view text);

/// Runs the untraced repetition of \p w on the spec file \p spec_path:
/// set-up (parse + construct, timed several times), Run(), the oracle
/// sample and a digest of the program's deterministic report. Prints
/// one JSON line; returns the process exit code.
int RunUntraced(const Workload& w, const std::string& spec_path);

/// Fixed calibration loop; prints its wall time as JSON. Used to tell
/// a slow host from slow code, never as a metric.
int RunProbe();

}  // namespace perfbench

#endif  // ACTG_PERFBENCH_MEASURE_H
