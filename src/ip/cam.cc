#include "src/ip/cam.h"

#include <cassert>

namespace emu {

Cam::Cam(Simulator& sim, std::string name, usize entries, usize key_bits, usize value_bits)
    : Module(sim, std::move(name)),
      key_bits_(key_bits),
      key_mask_(key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits) - 1),
      slots_(entries) {
  assert(entries > 0);
  assert(key_bits > 0 && key_bits <= 64);
  lowest_.reserve(entries);
  AddResources(CamIpResources(entries, key_bits, value_bits));
  sim.RegisterClocked(this);
  // Register the CamInterface subobject address: designs that hold the CAM
  // behind a unique_ptr<CamInterface> declare IO with that pointer, which
  // differs numerically from `this` under multiple inheritance.
  sim.catalog().AddElement(static_cast<const CamInterface*>(this), elab::NodeKind::kCam,
                           this->name());
}

// See the lifetime rule in simulator.h: no unregistration on destruction.
Cam::~Cam() = default;

CamLookupResult Cam::Lookup(u64 key) const {
  // A hardware CAM matches all entries in parallel and priority-encodes the
  // lowest index; lowest_ holds exactly that index for every committed key.
  const auto found = lowest_.find(key & key_mask_);
  if (found == lowest_.end()) {
    return CamLookupResult{};
  }
  return CamLookupResult{true, slots_[found->second].value, found->second};
}

void Cam::Unindex(usize index) {
  const auto found = lowest_.find(slots_[index].key);
  if (found->second != index) {
    return;  // a lower slot holds the key, and still does
  }
  for (usize i = index + 1; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].key == slots_[index].key) {
      found->second = i;
      return;
    }
  }
  lowest_.erase(found);
}

void Cam::Index(usize index) {
  const auto [found, inserted] = lowest_.try_emplace(slots_[index].key, index);
  if (!inserted && index < found->second) {
    found->second = index;
  }
}

void Cam::Write(usize index, u64 key, u64 value) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{true, key & key_mask_, value}});
}

void Cam::Invalidate(usize index) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{}});
}

void Cam::InjectBitFlip(u64 bit) {
  const usize slot_bits = 1 + key_bits_;
  const usize index = static_cast<usize>(bit / slot_bits) % slots_.size();
  const usize in_slot = static_cast<usize>(bit % slot_bits);
  Slot& slot = slots_[index];
  if (slot.valid) {
    Unindex(index);
  }
  if (in_slot == 0) {
    slot.valid = !slot.valid;
  } else {
    slot.key = (slot.key ^ (u64{1} << (in_slot - 1))) & key_mask_;
  }
  if (slot.valid) {
    Index(index);
  }
  // Committed state changed out-of-band; wake parked Lookup predicates.
  sim().NotifyWake();
}

void Cam::Commit() {
  if (pending_.empty()) {
    return;
  }
  for (const PendingWrite& write : pending_) {
    Slot& slot = slots_[write.index];
    if (slot.valid && write.slot.valid && slot.key == write.slot.key) {
      slot.value = write.slot.value;  // the index already points here
      continue;
    }
    if (slot.valid) {
      Unindex(write.index);
    }
    slot = write.slot;
    if (slot.valid) {
      Index(write.index);
    }
  }
  pending_.clear();
  // Lookup() results change at this edge; a process parked on a hit/miss
  // predicate must be re-evaluated.
  sim().NotifyWake();
}

}  // namespace emu
