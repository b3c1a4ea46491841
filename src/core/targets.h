// Execution targets: the same Service source runs on all of them (§3.3).
//
//   FpgaTarget — the cycle-accurate NetFPGA pipeline (hardware semantics);
//                latency/throughput numbers come from here.
//   CpuTarget  — plain software execution (software semantics); the paper's
//                x86 run/test environment for development and debugging.
//
// The third target, attachment to the event-driven network simulator
// (Mininet substitute), lives in src/sim/sim_host.h because it depends on
// the simulator; it reuses CpuTarget's software semantics.
#ifndef SRC_CORE_TARGETS_H_
#define SRC_CORE_TARGETS_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/service.h"
#include "src/kiwi/hw_scheduler.h"
#include "src/kiwi/sw_scheduler.h"
#include "src/netfpga/pipeline.h"

namespace emu {

struct EgressFrame {
  u8 port = 0;
  Packet frame;
};

class FpgaTarget {
 public:
  // `clock_hz` lets baselines run at their own fabric rate (the P4FPGA
  // comparison point uses 250 MHz, §5.3).
  explicit FpgaTarget(Service& service, PipelineConfig config = {},
                      u64 clock_hz = Simulator::kNetFpgaClockHz);

  Simulator& sim() { return scheduler_.sim(); }
  NetFpgaPipeline& pipeline() { return *pipeline_; }

  // Schedules a frame's arrival; does not advance time.
  void Inject(u8 port, Packet frame, Cycle earliest = 0);

  // Advances the clock.
  void Run(Cycle cycles) { scheduler_.sim().Run(cycles); }

  // Runs until at least `count` frames have egressed (or `limit` elapses).
  bool RunUntilEgressCount(usize count, Cycle limit);

  // Runs until the next frame egresses (or `limit` elapses). The canonical
  // request/response loop: Inject(); RunUntilEgress();
  bool RunUntilEgress(Cycle limit = 1'000'000) {
    return RunUntilEgressCount(egress_.size() + 1, limit);
  }

  // Runs until `done()` holds (or `limit` elapses). `done` must be a pure
  // function of simulation state — it is evaluated before each edge, and the
  // kernel may fast-forward across quiescent windows between evaluations.
  bool RunUntil(const std::function<bool()>& done, Cycle limit) {
    return scheduler_.RunUntil(done, limit);
  }

  // Convenience single request/response exchange: injects, runs until one
  // frame egresses, and returns it.
  Expected<Packet> SendAndCollect(u8 port, Packet frame, Cycle limit = 1'000'000);

  // All egressed frames so far, in egress order; Take clears the log.
  const std::vector<EgressFrame>& egress() const { return egress_; }
  std::vector<EgressFrame> TakeEgress();

 private:
  HwScheduler scheduler_;
  std::unique_ptr<NetFpgaPipeline> pipeline_;
  std::vector<EgressFrame> egress_;
};

class CpuTarget {
 public:
  explicit CpuTarget(Service& service, usize fifo_depth = 1024);

  Simulator& sim() { return scheduler_.sim(); }

  // Delivers one frame to the service under software semantics and returns
  // everything it emitted before going idle.
  std::vector<Packet> Deliver(Packet frame, usize max_quanta = 100'000);

  Service& service() { return service_; }

 private:
  Service& service_;
  SwScheduler scheduler_;
  std::unique_ptr<SyncFifo<Packet>> rx_;
  std::unique_ptr<SyncFifo<Packet>> tx_;
};

}  // namespace emu

#endif  // SRC_CORE_TARGETS_H_
