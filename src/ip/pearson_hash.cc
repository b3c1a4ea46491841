#include "src/ip/pearson_hash.h"

namespace emu {
namespace {

// A fixed permutation of 0..255, generated at compile time by a
// Fisher-Yates shuffle driven by a deterministic LCG so the table is a true
// permutation (tested) and identical on every build.
constexpr std::array<u8, 256> MakePermutation() {
  std::array<u8, 256> table{};
  for (usize i = 0; i < 256; ++i) {
    table[i] = static_cast<u8>(i);
  }
  u64 state = 0x9e3779b97f4a7c15ULL;
  for (usize i = 255; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const usize j = static_cast<usize>((state >> 33) % (i + 1));
    const u8 tmp = table[i];
    table[i] = table[j];
    table[j] = tmp;
  }
  return table;
}

constexpr std::array<u8, 256> kPermutation = MakePermutation();

u8 Lane(u8 state, u8 byte) { return kPermutation[static_cast<u8>(state ^ byte)]; }

// Widening trick: lane i starts from a lane-specific permutation of the
// first byte, then all lanes absorb the same stream, side by side. The lanes
// are eight locals, not an array, so the compiler keeps them in registers.
struct Lanes {
  u8 h0, h1, h2, h3, h4, h5, h6, h7;

  explicit Lanes(u8 first)
      : h0(kPermutation[first]),
        h1(kPermutation[static_cast<u8>(first + 1)]),
        h2(kPermutation[static_cast<u8>(first + 2)]),
        h3(kPermutation[static_cast<u8>(first + 3)]),
        h4(kPermutation[static_cast<u8>(first + 4)]),
        h5(kPermutation[static_cast<u8>(first + 5)]),
        h6(kPermutation[static_cast<u8>(first + 6)]),
        h7(kPermutation[static_cast<u8>(first + 7)]) {}

  void Absorb(u8 byte) {
    h0 = Lane(h0, byte);
    h1 = Lane(h1, byte);
    h2 = Lane(h2, byte);
    h3 = Lane(h3, byte);
    h4 = Lane(h4, byte);
    h5 = Lane(h5, byte);
    h6 = Lane(h6, byte);
    h7 = Lane(h7, byte);
  }

  u64 Digest() const {
    return u64{h0} | u64{h1} << 8 | u64{h2} << 16 | u64{h3} << 24 | u64{h4} << 32 |
           u64{h5} << 40 | u64{h6} << 48 | u64{h7} << 56;
  }
};

}  // namespace

u64 PearsonHash64(std::span<const u8> data) {
  if (data.empty()) {
    return 0;
  }
  Lanes lanes(data[0]);
  for (const u8 byte : data.subspan(1)) {
    lanes.Absorb(byte);
  }
  return lanes.Digest();
}

std::span<const u8> PearsonTable() { return kPermutation; }

u64 PearsonHash64(u64 key) {
  Lanes lanes(static_cast<u8>(key));
  for (usize i = 1; i < 8; ++i) {
    lanes.Absorb(static_cast<u8>(key >> (8 * i)));
  }
  return lanes.Digest();
}

PearsonHashIp::PearsonHashIp(Simulator& sim, std::string name)
    : Module(sim, std::move(name)),
      ready_(sim, this->name() + ".init_hash_ready", false),
      enable_(sim, this->name() + ".init_hash_enable", false),
      data_in_(sim, this->name() + ".data_in", u8{0}),
      hash_out_(sim, this->name() + ".hash_out", u64{0}) {
  // Permutation table (256 x 8 bits, replicated per lane) in BRAM plus a
  // small control FSM.
  AddResources(ResourceUsage{210, 150, 1});
}

void PearsonHashIp::Clear() {
  lanes_ = {};
  seeded_ = false;
  hash_out_.Write(0);
}

HwProcess PearsonHashIp::MakeProcess() {
  ready_.Write(true);
  co_await Pause();
  for (;;) {
    if (ready_.Read() && enable_.Read()) {
      const u8 byte = data_in_.Read();
      if (!seeded_) {
        for (usize lane = 0; lane < 8; ++lane) {
          lanes_[lane] = kPermutation[static_cast<u8>(byte + lane)];
        }
        seeded_ = true;
      } else {
        for (usize lane = 0; lane < 8; ++lane) {
          lanes_[lane] = Lane(static_cast<u8>(lanes_[lane]), byte);
        }
      }
      u64 digest = 0;
      for (usize lane = 0; lane < 8; ++lane) {
        digest |= lanes_[lane] << (8 * lane);
      }
      hash_out_.Write(digest);
      // One busy cycle per byte: the absorb pipeline.
      ready_.Write(false);
      co_await Pause();
      ready_.Write(true);
    }
    co_await Pause();
  }
}

HwProcess PearsonHashIp::Seed(PearsonHashIp& core, std::span<const u8> data) {
  // Client half of the Fig. 5 handshake: wait for ready, present the byte
  // with enable pulsed for one cycle, then wait for the core to come ready
  // again before releasing the bus.
  for (const u8 byte : data) {
    while (!core.ready_.Read()) {
      co_await Pause();
    }
    core.data_in_.Write(byte);
    core.enable_.Write(true);
    co_await Pause();
    core.enable_.Write(false);
    while (!core.ready_.Read()) {
      co_await Pause();
    }
    co_await Pause();
  }
}

}  // namespace emu
