/// \file hash.h
/// 64-bit FNV-1a hashing: the one hash behind every structural
/// fingerprint (graph, platform, scheduler config, campaign spec) and
/// every schedule-cache bucket. Not cryptographic — identity and
/// bucketing only. Values are part of persisted formats (checkpoint
/// fingerprints, trace timeline unit ids), so the byte order below is
/// fixed.

#ifndef ACTG_UTIL_HASH_H
#define ACTG_UTIL_HASH_H

#include <cstdint>
#include <string_view>

namespace actg::util {

/// FNV-1a 64 offset basis: the hash of the empty input.
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// One FNV-1a round per byte of \p value, least significant byte first.
std::uint64_t HashCombine(std::uint64_t hash, std::uint64_t value);

/// Hashes a double by its bit pattern (exact, no tolerance).
std::uint64_t HashDouble(std::uint64_t hash, double value);

/// FNV-1a 64 of a byte string.
std::uint64_t HashBytes(std::string_view bytes);

}  // namespace actg::util

#endif  // ACTG_UTIL_HASH_H
