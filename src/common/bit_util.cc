#include "src/common/bit_util.h"

#include <cassert>

namespace emu {
namespace {

u64 GetBE(std::span<const u8> buf, usize offset, usize nbytes) {
  assert(offset + nbytes <= buf.size());
  u64 v = 0;
  for (usize i = 0; i < nbytes; ++i) {
    v = (v << 8) | buf[offset + i];
  }
  return v;
}

void SetBE(std::span<u8> buf, usize offset, usize nbytes, u64 value) {
  assert(offset + nbytes <= buf.size());
  for (usize i = 0; i < nbytes; ++i) {
    buf[offset + i] = static_cast<u8>(value >> (8 * (nbytes - 1 - i)));
  }
}

}  // namespace

u8 BitUtil::Get8(std::span<const u8> buf, usize offset) {
  return static_cast<u8>(GetBE(buf, offset, 1));
}

u16 BitUtil::Get16(std::span<const u8> buf, usize offset) {
  return static_cast<u16>(GetBE(buf, offset, 2));
}

u32 BitUtil::Get32(std::span<const u8> buf, usize offset) {
  return static_cast<u32>(GetBE(buf, offset, 4));
}

u64 BitUtil::Get48(std::span<const u8> buf, usize offset) { return GetBE(buf, offset, 6); }

u64 BitUtil::Get64(std::span<const u8> buf, usize offset) { return GetBE(buf, offset, 8); }

void BitUtil::Set8(std::span<u8> buf, usize offset, u8 value) { SetBE(buf, offset, 1, value); }

void BitUtil::Set16(std::span<u8> buf, usize offset, u16 value) { SetBE(buf, offset, 2, value); }

void BitUtil::Set32(std::span<u8> buf, usize offset, u32 value) { SetBE(buf, offset, 4, value); }

void BitUtil::Set48(std::span<u8> buf, usize offset, u64 value) { SetBE(buf, offset, 6, value); }

void BitUtil::Set64(std::span<u8> buf, usize offset, u64 value) { SetBE(buf, offset, 8, value); }

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
