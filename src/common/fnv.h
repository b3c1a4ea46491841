// FNV-1a (64-bit): the one hash behind every bit-exact digest — fault logs,
// membership histories, chain counters, and the egress and arrival logs the
// tests and benches compare across kernel modes, thread counts and replays.
//
// Deliberately not std::hash: a digest must be stable across builds and
// standard libraries for replays to be portable. Each call site picks the
// fold that matches what it hashes, and must keep it: switching a site from
// a word mix to a byte fold changes its digests.
#ifndef SRC_COMMON_FNV_H_
#define SRC_COMMON_FNV_H_

#include <span>

#include "src/common/types.h"

namespace emu::fnv {

inline constexpr u64 kOffset = 14695981039346656037ull;
inline constexpr u64 kPrime = 1099511628211ull;

// One FNV-1a step over a whole word: (h ^ word) * prime.
constexpr u64 Mix(u64 h, u64 word) { return (h ^ word) * kPrime; }

// The bytes, in order.
constexpr u64 Bytes(u64 h, std::span<const u8> bytes) {
  for (const u8 b : bytes) {
    h = Mix(h, b);
  }
  return h;
}

// A u64 as its 8 little-endian bytes.
constexpr u64 U64(u64 h, u64 value) {
  for (int i = 0; i < 8; ++i) {
    h = Mix(h, (value >> (8 * i)) & 0xff);
  }
  return h;
}

}  // namespace emu::fnv

#endif  // SRC_COMMON_FNV_H_
