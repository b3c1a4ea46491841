// HashCAM: hash-indexed associative memory (Fig. 9).
//
// The paper's LRU cache pairs a HashCAM (key -> slot index, with a `matched`
// flag) with the NaughtyQ recency queue. This block models a Pearson-hashed,
// limited-probe open-addressing table: Read(key) sets `matched` and returns
// the stored index; Write(key, idx) installs or updates a binding; Erase(key)
// removes one (needed when NaughtyQ evicts). The probe limit models the fixed
// lookup pipeline a hardware table has — beyond it, Write simply fails, which
// callers treat as a capacity miss.
#ifndef SRC_IP_HASH_CAM_H_
#define SRC_IP_HASH_CAM_H_

#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/hdl/module.h"

namespace emu {

class HashCam : public Module {
 public:
  static constexpr usize kProbeLimit = 8;

  struct Bucket {
    bool valid = false;
    u64 key = 0;
    u64 index = 0;
  };

  // A key with its hash. Hashing is most of an operation's cost, so a caller
  // that reads, erases and writes one key hashes it once (Hashed) and passes
  // the result to each operation.
  struct Key {
    u64 key = 0;
    usize home = 0;  // probe i reads bucket (home + i) & (buckets - 1)
  };
  static Key Hashed(u64 key);

  // `buckets` is rounded up to a power of two.
  HashCam(Simulator& sim, std::string name, usize buckets);

  usize buckets() const { return table_.size(); }

  // True when the last Read() found its key (the Fig. 9 `HashCAM.matched`).
  bool matched() const { return matched_; }

  // Returns the index bound to `key` (0 when unmatched; check matched()).
  u64 Read(Key key);
  u64 Read(u64 key) { return Read(Hashed(key)); }

  // Installs or updates key -> index. Returns false when the probe window is
  // exhausted (capacity miss).
  bool Write(Key key, u64 index);
  bool Write(u64 key, u64 index) { return Write(Hashed(key), index); }

  // Removes the binding for `key` if present.
  void Erase(Key key);
  void Erase(u64 key) { Erase(Hashed(key)); }

  // The bucket array, for reference tests.
  std::span<const Bucket> table() const { return table_; }

  // SEU-style fault injection (emu-fault): flips one committed bit of one
  // bucket. Per-bucket layout: bit 0 = valid flag, bits [1, 65) = key. A
  // valid flip drops or resurrects a binding; a key flip makes lookups miss
  // — services must degrade (miss, NXDOMAIN, reject), never crash.
  void InjectBitFlip(u64 bit);
  // Bits addressable by InjectBitFlip, for SEU-target registration.
  u64 state_bits() const { return static_cast<u64>(table_.size()) * 65; }

 private:
  std::vector<Bucket> table_;
  usize mask_;
  bool matched_ = false;
};

}  // namespace emu

#endif  // SRC_IP_HASH_CAM_H_
