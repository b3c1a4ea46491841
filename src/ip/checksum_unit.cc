#include "src/ip/checksum_unit.h"

#include <bit>
#include <cstring>

#include "src/fault/fault_registry.h"

namespace emu {
namespace {

// One load and a byte swap: BitUtil::Get64's byte loop compiles to eight
// loads here and makes AddBytes about three times slower.
u64 LoadBigEndian64(const u8* bytes) {
  u64 word;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

}  // namespace

ChecksumUnit::ChecksumUnit(Simulator& sim, std::string name) : Module(sim, std::move(name)) {
  AddResources(ResourceUsage{180, 120, 0});
}

void ChecksumUnit::Reset() {
  sum_ = 0;
  high_byte_ = true;
}

void ChecksumUnit::AddByte(u8 byte) {
  if (high_byte_) {
    sum_ += static_cast<u64>(byte) << 8;
  } else {
    sum_ += byte;
  }
  high_byte_ = !high_byte_;
}

// Adds whole big-endian 16-bit words, the same sum the byte path builds.
void ChecksumUnit::AddBytes(std::span<const u8> data) {
  usize i = 0;
  if (!high_byte_ && !data.empty()) {
    AddByte(data[0]);  // the low half of the word the last add left open
    i = 1;
  }
  // Four words per 8-byte load: summing the two words in each 32-bit half
  // leaves two 17-bit sums that cannot carry into each other.
  constexpr u64 kLowWords = 0x0000ffff0000ffffULL;
  for (; i + 8 <= data.size(); i += 8) {
    const u64 words = LoadBigEndian64(&data[i]);
    const u64 pairs = (words & kLowWords) + ((words >> 16) & kLowWords);
    sum_ += (pairs & 0xffffffff) + (pairs >> 32);
  }
  for (; i + 2 <= data.size(); i += 2) {
    sum_ += static_cast<u64>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {
    AddByte(data[i]);  // opens a word the next add completes
  }
}

void ChecksumUnit::Add16(u16 value) {
  // After an odd byte count the word's first byte lands in the low half.
  sum_ += high_byte_ ? value : static_cast<u16>(value << 8 | value >> 8);
}

void ChecksumUnit::Add32(u32 value) {
  Add16(static_cast<u16>(value >> 16));
  Add16(static_cast<u16>(value));
}

void ChecksumUnit::AttachFault(FaultRegistry& registry, const std::string& name) {
  fold_fault_ = registry.Register(name + ".fold", FaultClass::kChecksumFold);
}

u16 ChecksumUnit::Result() const {
  u64 sum = sum_;
  bool skip_fold = inject_fold_bug_;
  if (!skip_fold && fold_fault_ != nullptr && fold_fault_->armed()) {
    skip_fold = fold_fault_->Sample(sim().now());
  }
  if (skip_fold) {
    // The §5.5 bug: take the low 16 bits without folding the carries back
    // in. Correct for short payloads, wrong as soon as the sum overflows
    // 16 bits — exactly the kind of bug invisible in small simulations.
    return static_cast<u16>(~sum & 0xffff);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<u16>(~sum & 0xffff);
}

}  // namespace emu
