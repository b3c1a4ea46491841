#include "src/ip/hash_cam.h"

#include <cassert>

#include "src/ip/pearson_hash.h"

namespace emu {
namespace {

usize RoundUpPow2(usize v) {
  usize p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

HashCam::Key HashCam::Hashed(u64 key) {
  return Key{key, static_cast<usize>(PearsonHash64(key))};
}

HashCam::HashCam(Simulator& sim, std::string name, usize buckets)
    : Module(sim, std::move(name)), table_(RoundUpPow2(buckets)), mask_(table_.size() - 1) {
  assert(buckets > 0);
  // key + index + valid per bucket in BRAM; hash core + probe FSM in fabric.
  AddResources(BramResources(table_.size() * (64 + 64 + 1)) + ResourceUsage{320, 180, 1});
  sim.catalog().AddElement(this, elab::NodeKind::kHashCam, this->name());
}

u64 HashCam::Read(Key key) {
  for (usize probe = 0; probe < kProbeLimit; ++probe) {
    const Bucket& bucket = table_[(key.home + probe) & mask_];
    if (bucket.valid && bucket.key == key.key) {
      matched_ = true;
      return bucket.index;
    }
  }
  matched_ = false;
  return 0;
}

bool HashCam::Write(Key key, u64 index) {
  // HashCam is not Clocked: writes take effect immediately, so each mutation
  // announces itself to the wake-epoch protocol here instead of in Commit().
  // First pass: update in place if the key is already bound.
  for (usize probe = 0; probe < kProbeLimit; ++probe) {
    Bucket& bucket = table_[(key.home + probe) & mask_];
    if (bucket.valid && bucket.key == key.key) {
      bucket.index = index;
      sim().NotifyWake();
      return true;
    }
  }
  for (usize probe = 0; probe < kProbeLimit; ++probe) {
    Bucket& bucket = table_[(key.home + probe) & mask_];
    if (!bucket.valid) {
      bucket = Bucket{true, key.key, index};
      sim().NotifyWake();
      return true;
    }
  }
  return false;
}

void HashCam::InjectBitFlip(u64 bit) {
  const usize index = static_cast<usize>(bit / 65) % table_.size();
  const usize in_bucket = static_cast<usize>(bit % 65);
  Bucket& bucket = table_[index];
  if (in_bucket == 0) {
    bucket.valid = !bucket.valid;
  } else {
    bucket.key ^= u64{1} << (in_bucket - 1);
  }
  sim().NotifyWake();
}

void HashCam::Erase(Key key) {
  for (usize probe = 0; probe < kProbeLimit; ++probe) {
    Bucket& bucket = table_[(key.home + probe) & mask_];
    if (bucket.valid && bucket.key == key.key) {
      bucket.valid = false;
      sim().NotifyWake();
      return;
    }
  }
}

}  // namespace emu
