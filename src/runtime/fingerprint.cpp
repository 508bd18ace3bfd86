#include "runtime/fingerprint.h"

#include "util/hash.h"

namespace actg::runtime {

std::uint64_t FingerprintCtg(const ctg::Ctg& graph) {
  return util::HashDouble(graph.structural_hash(), graph.deadline_ms());
}

std::uint64_t FingerprintPlatform(const arch::Platform& platform) {
  return platform.fingerprint();
}

}  // namespace actg::runtime
