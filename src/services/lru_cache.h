// Look-aside least-recently-used cache (§4.4, Fig. 9).
//
// The paper's closing example: an LRU cache is a few lines in Emu but would
// need control-plane-managed eviction in a match-action DSL. The structure is
// exactly Fig. 9's: a HashCAM maps keys to slot indices in a NaughtyQ recency
// queue; Lookup touches the entry to the back of the queue, Cache enlists a
// value (evicting the front when full) and binds the key. This block also
// backs the Memcached service's store.
#ifndef SRC_SERVICES_LRU_CACHE_H_
#define SRC_SERVICES_LRU_CACHE_H_

#include <memory>
#include <vector>

#include "src/hdl/module.h"
#include "src/ip/hash_cam.h"
#include "src/ip/naughty_q.h"

namespace emu {

class LruCacheBlock : public Module {
 public:
  // Fig. 9's result record (index added for clients that keep sideband
  // state per slot, e.g. the Memcached store).
  struct Data {
    bool matched = false;
    u64 result = 0;
    usize index = 0;
  };

  LruCacheBlock(Simulator& sim, std::string name, usize capacity);

  usize capacity() const { return queue_->capacity(); }
  usize size() const { return queue_->size(); }

  // Fig. 9 Lookup: on a hit, returns the value and moves the entry to the
  // back of the recency queue.
  Data Lookup(u64 key_in);

  // Fig. 9 Cache: stores key -> value, evicting the LRU entry when full.
  // Returns the slot index the value landed in (stable until eviction).
  usize Cache(u64 key_in, u64 value_in);

  // Removes a key (needed by Memcached DELETE; not in the paper's snippet).
  bool Erase(u64 key_in);

  u64 evictions() const { return evictions_; }

 private:
  // Erase with the key hashed once by the caller.
  bool Erase(HashCam::Key key);

  std::unique_ptr<HashCam> hash_cam_;
  std::unique_ptr<NaughtyQ> queue_;
  std::vector<u64> key_of_slot_;  // reverse map for eviction invalidation
  std::vector<bool> slot_used_;
  u64 evictions_ = 0;
};

}  // namespace emu

#endif  // SRC_SERVICES_LRU_CACHE_H_
