#include "src/services/lru_cache.h"

namespace emu {

LruCacheBlock::LruCacheBlock(Simulator& sim, std::string name, usize capacity)
    : Module(sim, name) {
  hash_cam_ = std::make_unique<HashCam>(sim, name + "_hashcam", capacity * 2);
  queue_ = std::make_unique<NaughtyQ>(sim, name + "_naughtyq", capacity);
  key_of_slot_.resize(capacity, 0);
  slot_used_.resize(capacity, false);
  AddResources(hash_cam_->resources() + queue_->resources());
}

LruCacheBlock::Data LruCacheBlock::Lookup(u64 key_in) {
  Data res;
  const u64 idx = hash_cam_->Read(key_in);
  if (hash_cam_->matched()) {
    res.matched = true;
    res.result = queue_->Read(idx);
    res.index = idx;
    queue_->BackOfQ(idx);
  }
  return res;
}

usize LruCacheBlock::Cache(u64 key_in, u64 value_in) {
  const HashCam::Key key = HashCam::Hashed(key_in);
  // Re-caching an existing key: unbind the old slot first (it becomes the
  // next eviction candidate), then insert fresh.
  Erase(key);
  const NaughtyQ::EnlistResult enlisted = queue_->Enlist(value_in);
  if (enlisted.evicted && slot_used_[enlisted.index]) {
    // A live entry fell out of the front of the queue: unbind its key.
    hash_cam_->Erase(key_of_slot_[enlisted.index]);
    ++evictions_;
  }
  if (!hash_cam_->Write(key, enlisted.index)) {
    // Probe window exhausted: the new entry is unreachable, i.e. instantly
    // evicted. Leave the slot as an unbound zombie for recycling.
    slot_used_[enlisted.index] = false;
    queue_->FrontOfQ(enlisted.index);
    ++evictions_;
    return enlisted.index;
  }
  key_of_slot_[enlisted.index] = key_in;
  slot_used_[enlisted.index] = true;
  return enlisted.index;
}

bool LruCacheBlock::Erase(u64 key_in) { return Erase(HashCam::Hashed(key_in)); }

bool LruCacheBlock::Erase(HashCam::Key key) {
  const u64 idx = hash_cam_->Read(key);
  if (!hash_cam_->matched()) {
    return false;
  }
  hash_cam_->Erase(key);
  slot_used_[idx] = false;
  // Demote the now-unbound slot to the front so the next Enlist recycles it
  // before touching any live entry.
  queue_->FrontOfQ(idx);
  return true;
}

}  // namespace emu
