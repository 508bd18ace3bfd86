#include "util/hash.h"

#include <bit>

namespace actg::util {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

}  // namespace

std::uint64_t HashCombine(std::uint64_t hash, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    hash = (hash ^ ((value >> shift) & 0xFF)) * kFnvPrime;
  }
  return hash;
}

std::uint64_t HashDouble(std::uint64_t hash, double value) {
  return HashCombine(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t HashBytes(std::string_view bytes) {
  std::uint64_t hash = kFnvOffset;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return hash;
}

}  // namespace actg::util
