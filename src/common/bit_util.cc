#include "src/common/bit_util.h"

#include <cassert>

namespace emu {

// A field of `width` <= 32 bits starting at any bit spans at most 5 bytes;
// both accessors read (and SetBits writes back) those bytes as one
// big-endian word.
u32 BitUtil::GetBits(std::span<const u8> buf, usize byte_offset, usize bit_offset, usize width) {
  assert(width > 0 && width <= 32);
  const usize first_bit = byte_offset * 8 + bit_offset;
  const usize nbytes = (first_bit % 8 + width + 7) / 8;
  const u64 word = GetBE(buf, first_bit / 8, nbytes);
  const usize shift = nbytes * 8 - first_bit % 8 - width;
  return static_cast<u32>((word >> shift) & ((u64{1} << width) - 1));
}

void BitUtil::SetBits(std::span<u8> buf, usize byte_offset, usize bit_offset, usize width,
                      u32 value) {
  assert(width > 0 && width <= 32);
  const usize first_bit = byte_offset * 8 + bit_offset;
  const usize nbytes = (first_bit % 8 + width + 7) / 8;
  const usize shift = nbytes * 8 - first_bit % 8 - width;
  const u64 mask = ((u64{1} << width) - 1) << shift;
  const u64 word = GetBE(buf, first_bit / 8, nbytes);
  SetBE(buf, first_bit / 8, nbytes, (word & ~mask) | ((u64{value} << shift) & mask));
}

}  // namespace emu
