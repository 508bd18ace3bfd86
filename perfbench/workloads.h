/// \file workloads.h
/// The benchmark's workloads: what each one runs, how it is sized, and
/// the campaign-v1 / serve-v1 file it hands the program.

#ifndef ACTG_PERFBENCH_WORKLOADS_H
#define ACTG_PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Kind { kCampaign, kServe };

/// Input size of one repetition. kTiny exists for the self-test only.
enum class Size { kFull, kTiny };

struct Workload {
  std::string_view name;
  Kind kind;
  /// Campaign storm the population is restricted to (campaigns only).
  std::string_view storm;
  /// Pool workers the program runs with (1 = serial).
  std::size_t jobs;
  /// Campaign population at full / tiny size.
  std::size_t population;
  std::size_t tiny_population;
  /// Serve fleet shape at full / tiny size.
  std::size_t tenants;
  std::size_t instances;
  std::size_t tiny_tenants;
  std::size_t tiny_instances;
  /// Why the workload is in the benchmark.
  std::string_view why;
  /// Loop shape: closed loop, workers, arrivals.
  std::string_view loop;
};

const std::vector<Workload>& Workloads();

/// Null when \p name is not a workload.
const Workload* FindWorkload(std::string_view name);

/// Writes the spec file of \p w for workload seed \p seed: a
/// campaign-v1 file from campaign::SyntheticCampaign restricted to the
/// workload's storm, or a serve-v1 file from serve::SyntheticFleet.
void WriteSpec(std::ostream& os, const Workload& w, std::uint64_t seed,
               Size size);

}  // namespace perfbench

#endif  // ACTG_PERFBENCH_WORKLOADS_H
