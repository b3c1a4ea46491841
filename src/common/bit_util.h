// Byte-array field accessors in network (big-endian) order.
//
// These mirror the paper's BitUtil.Get32 / BitUtil.Set32 helpers (Fig. 4),
// which Emu's protocol wrappers use to give names and types to bit fields of a
// raw frame. All offsets are byte offsets into the buffer; all multi-byte
// accessors use network byte order because they operate on wire-format frames.
#ifndef SRC_COMMON_BIT_UTIL_H_
#define SRC_COMMON_BIT_UTIL_H_

#include <cassert>
#include <span>

#include "src/common/types.h"

namespace emu {

// Defined inline: every protocol view reads its fields through these, several
// times per frame, so a call each would cost more than the read.
class BitUtil {
 public:
  BitUtil() = delete;

  static u8 Get8(std::span<const u8> buf, usize offset) {
    return static_cast<u8>(GetBE(buf, offset, 1));
  }
  static u16 Get16(std::span<const u8> buf, usize offset) {
    return static_cast<u16>(GetBE(buf, offset, 2));
  }
  static u32 Get32(std::span<const u8> buf, usize offset) {
    return static_cast<u32>(GetBE(buf, offset, 4));
  }
  static u64 Get48(std::span<const u8> buf, usize offset) { return GetBE(buf, offset, 6); }
  static u64 Get64(std::span<const u8> buf, usize offset) { return GetBE(buf, offset, 8); }

  static void Set8(std::span<u8> buf, usize offset, u8 value) { SetBE(buf, offset, 1, value); }
  static void Set16(std::span<u8> buf, usize offset, u16 value) { SetBE(buf, offset, 2, value); }
  static void Set32(std::span<u8> buf, usize offset, u32 value) { SetBE(buf, offset, 4, value); }
  static void Set48(std::span<u8> buf, usize offset, u64 value) { SetBE(buf, offset, 6, value); }
  static void Set64(std::span<u8> buf, usize offset, u64 value) { SetBE(buf, offset, 8, value); }

  // Bit-granular accessors, used by parsers for sub-byte fields (e.g. the
  // TCP data offset and the IPv4 version/IHL setter). Bit 0 is the most significant
  // bit of the byte at `byte_offset`, matching RFC diagram order.
  static u32 GetBits(std::span<const u8> buf, usize byte_offset, usize bit_offset, usize width);
  static void SetBits(std::span<u8> buf, usize byte_offset, usize bit_offset, usize width,
                      u32 value);

 private:
  static u64 GetBE(std::span<const u8> buf, usize offset, usize nbytes) {
    assert(offset + nbytes <= buf.size());
    u64 v = 0;
    for (usize i = 0; i < nbytes; ++i) {
      v = (v << 8) | buf[offset + i];
    }
    return v;
  }

  static void SetBE(std::span<u8> buf, usize offset, usize nbytes, u64 value) {
    assert(offset + nbytes <= buf.size());
    for (usize i = 0; i < nbytes; ++i) {
      buf[offset + i] = static_cast<u8>(value >> (8 * (nbytes - 1 - i)));
    }
  }
};

}  // namespace emu

#endif  // SRC_COMMON_BIT_UTIL_H_
