// CAM synthesized from plain high-level code (the paper's "C# CAM", §4.1).
//
// Functionally identical to the vendor IP block but with the cost profile of
// HLS-generated compare trees: more fabric LUTs/registers, no BRAM, and a
// two-cycle lookup (compare tree + priority encode scheduled across two
// states). The learning switch can be built against either variant; the
// ablation bench compares them.
#ifndef SRC_IP_LOGIC_CAM_H_
#define SRC_IP_LOGIC_CAM_H_

#include <vector>

#include "src/ip/cam.h"

namespace emu {

class LogicCam : public Module, public CamInterface, public Clocked {
 public:
  static constexpr Cycle kLookupLatency = 2;

  LogicCam(Simulator& sim, std::string name, usize entries, usize key_bits, usize value_bits);
  ~LogicCam() override;

  usize entries() const override { return slots_.size(); }
  Cycle lookup_latency() const override { return kLookupLatency; }

  CamLookupResult Lookup(u64 key) const override;
  void Write(usize index, u64 key, u64 value) override;
  void Invalidate(usize index) override;

  void Commit() override;

 private:
  struct Slot {
    bool valid = false;
    u64 key = 0;
    u64 value = 0;
  };
  struct PendingWrite {
    usize index;
    Slot slot;
  };

  u64 key_mask_;
  std::vector<Slot> slots_;
  std::vector<PendingWrite> pending_;
};

}  // namespace emu

#endif  // SRC_IP_LOGIC_CAM_H_
