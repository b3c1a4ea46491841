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

u64 HashBytes(std::span<const u8> data) {
  if (data.empty()) {
    return 0;
  }
  // Widening trick: lane i starts from a lane-specific permutation of the
  // first byte, then all lanes absorb the same stream, side by side.
  std::array<u8, 8> lanes{};
  for (usize lane = 0; lane < 8; ++lane) {
    lanes[lane] = kPermutation[static_cast<u8>(data[0] + lane)];
  }
  for (const u8 byte : data.subspan(1)) {
    for (u8& h : lanes) {
      h = Lane(h, byte);
    }
  }
  u64 digest = 0;
  for (usize lane = 0; lane < 8; ++lane) {
    digest |= static_cast<u64>(lanes[lane]) << (8 * lane);
  }
  return digest;
}

}  // namespace

u64 PearsonHash64(std::span<const u8> data) { return HashBytes(data); }

std::span<const u8> PearsonTable() { return kPermutation; }

u64 PearsonHash64(u64 key) {
  std::array<u8, 8> bytes{};
  for (usize i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<u8>(key >> (8 * i));
  }
  return HashBytes(bytes);
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
