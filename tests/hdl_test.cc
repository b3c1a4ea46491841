#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <vector>

#include "src/common/rng.h"
#include "src/hdl/fifo.h"
#include "src/hdl/module.h"
#include "src/hdl/process.h"
#include "src/hdl/resource_model.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"

namespace emu {
namespace {

// --- Simulator basics --------------------------------------------------------

TEST(Simulator, CyclePeriodMatchesClock) {
  Simulator sim(200'000'000);
  EXPECT_EQ(sim.cycle_period_ps(), 5000);  // 200 MHz -> 5 ns
  Simulator fast(250'000'000);
  EXPECT_EQ(fast.cycle_period_ps(), 4000);  // P4FPGA baseline clock
}

TEST(Simulator, NowAdvancesPerStep) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.Step();
  EXPECT_EQ(sim.now(), 1u);
  sim.Run(9);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.NowPs(), 10 * 5000);
}

HwProcess CountingProcess(Reg<u64>& counter) {
  for (;;) {
    counter.Write(counter.Read() + 1);
    co_await Pause();
  }
}

TEST(Simulator, ProcessRunsOncePerCycle) {
  Simulator sim;
  Reg<u64> counter(sim, 0);
  sim.AddProcess(CountingProcess(counter), "counter");
  sim.Run(5);
  EXPECT_EQ(counter.Read(), 5u);
}

HwProcess FiniteProcess(Reg<u64>& out, int steps) {
  for (int i = 0; i < steps; ++i) {
    out.Write(out.Read() + 1);
    co_await Pause();
  }
}

TEST(Simulator, FiniteProcessStopsAfterCompletion) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(FiniteProcess(out, 3), "finite");
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Run(10);
  EXPECT_EQ(out.Read(), 3u);
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  Reg<u64> counter(sim, 0);
  sim.AddProcess(CountingProcess(counter), "counter");
  EXPECT_TRUE(sim.RunUntil([&] { return counter.Read() >= 4; }, 100));
  EXPECT_EQ(counter.Read(), 4u);
  EXPECT_EQ(sim.now(), 4u);
}

TEST(Simulator, RunUntilReportsTimeout) {
  Simulator sim;
  EXPECT_FALSE(sim.RunUntil([] { return false; }, 10));
  EXPECT_EQ(sim.now(), 10u);
}

// --- Register semantics ------------------------------------------------------

TEST(Reg, WriteVisibleOnlyAfterCommit) {
  Simulator sim;
  Reg<int> reg(sim, 0);
  reg.Write(42);
  EXPECT_EQ(reg.Read(), 0);   // pre-edge
  EXPECT_EQ(reg.Pending(), 42);
  sim.Step();
  EXPECT_EQ(reg.Read(), 42);  // post-edge
}

// Two processes exchanging values through registers in the same cycle must
// both observe pre-edge state: a classic two-register swap works without an
// intermediate temp, exactly as in RTL.
HwProcess SwapHalf(Reg<int>& from, Reg<int>& to) {
  for (;;) {
    to.Write(from.Read());
    co_await Pause();
  }
}

TEST(Reg, NonBlockingSwap) {
  Simulator sim;
  Reg<int> a(sim, 1);
  Reg<int> b(sim, 2);
  sim.AddProcess(SwapHalf(a, b), "a_to_b");
  sim.AddProcess(SwapHalf(b, a), "b_to_a");
  sim.Step();
  EXPECT_EQ(a.Read(), 2);
  EXPECT_EQ(b.Read(), 1);
  sim.Step();
  EXPECT_EQ(a.Read(), 1);
  EXPECT_EQ(b.Read(), 2);
}

// --- PauseFor ----------------------------------------------------------------

HwProcess SleepyProcess(Reg<u64>& out) {
  out.Write(1);
  co_await PauseFor(3);
  out.Write(2);
  co_await Pause();
}

TEST(PauseFor, SleepsRequestedCycles) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(SleepyProcess(out), "sleepy");
  sim.Step();
  EXPECT_EQ(out.Read(), 1u);
  sim.Step();
  sim.Step();
  EXPECT_EQ(out.Read(), 1u);  // still sleeping
  sim.Step();
  EXPECT_EQ(out.Read(), 2u);
}

HwProcess ZeroPauseProcess(Reg<u64>& out) {
  co_await PauseFor(0);  // must be a no-op
  out.Write(7);
  co_await Pause();
}

TEST(PauseFor, ZeroCyclesIsNoOp) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(ZeroPauseProcess(out), "zero");
  sim.Step();
  EXPECT_EQ(out.Read(), 7u);
}

// --- Handshake between processes (Fig. 5 style) ------------------------------

struct Handshake {
  Reg<bool> ready;
  Reg<bool> enable;
  Reg<int> data;
  explicit Handshake(Simulator& sim) : ready(sim, false), enable(sim, false), data(sim, 0) {}
};

HwProcess HandshakeProducer(Handshake& hs, int payload) {
  while (!hs.ready.Read()) {
    co_await Pause();
  }
  hs.data.Write(payload);
  hs.enable.Write(true);
  co_await Pause();
  hs.enable.Write(false);
  co_await Pause();
}

HwProcess HandshakeConsumer(Handshake& hs, Reg<int>& received) {
  hs.ready.Write(true);
  co_await Pause();
  while (!hs.enable.Read()) {
    co_await Pause();
  }
  received.Write(hs.data.Read());
  hs.ready.Write(false);
  co_await Pause();
}

TEST(Handshake, ReadyEnableProtocolDeliversData) {
  Simulator sim;
  Handshake hs(sim);
  Reg<int> received(sim, 0);
  sim.AddProcess(HandshakeProducer(hs, 99), "producer");
  sim.AddProcess(HandshakeConsumer(hs, received), "consumer");
  ASSERT_TRUE(sim.RunUntil([&] { return received.Read() == 99; }, 20));
}

// --- SyncFifo ----------------------------------------------------------------

TEST(SyncFifo, PushVisibleAfterCommit) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 4, 32);
  EXPECT_TRUE(fifo.Empty());
  EXPECT_TRUE(fifo.Push(1));
  EXPECT_TRUE(fifo.Empty());  // not yet committed
  sim.Step();
  EXPECT_EQ(fifo.Size(), 1u);
  EXPECT_EQ(fifo.Front(), 1);
}

TEST(SyncFifo, RespectsDepthIncludingPendingPushes) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);
  EXPECT_TRUE(fifo.Push(1));
  EXPECT_TRUE(fifo.Push(2));
  EXPECT_FALSE(fifo.Push(3));  // full counting pending
  sim.Step();
  EXPECT_EQ(fifo.Size(), 2u);
  EXPECT_FALSE(fifo.CanPush());
}

TEST(SyncFifo, PopFreesSpaceSameCycle) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);
  fifo.Push(1);
  fifo.Push(2);
  sim.Step();
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_TRUE(fifo.CanPush());  // pop freed a slot for this edge
  EXPECT_TRUE(fifo.Push(3));
  sim.Step();
  EXPECT_EQ(fifo.Size(), 2u);
  EXPECT_EQ(fifo.Pop(), 2);
  EXPECT_EQ(fifo.Pop(), 3);
}

TEST(SyncFifo, OrderIsFifo) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 8, 32);
  for (int i = 0; i < 5; ++i) {
    fifo.Push(i);
  }
  sim.Step();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fifo.Pop(), i);
  }
}

HwProcess FifoProducer(SyncFifo<int>& fifo, int count) {
  for (int i = 0; i < count;) {
    if (fifo.Push(i)) {
      ++i;
    }
    co_await Pause();
  }
}

HwProcess FifoConsumer(SyncFifo<int>& fifo, std::vector<int>& out, int count) {
  while (static_cast<int>(out.size()) < count) {
    if (!fifo.Empty()) {
      out.push_back(fifo.Pop());
    }
    co_await Pause();
  }
}

TEST(SyncFifo, ProducerConsumerAcrossBackpressure) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);  // tiny: forces backpressure
  std::vector<int> out;
  sim.AddProcess(FifoProducer(fifo, 20), "producer");
  sim.AddProcess(FifoConsumer(fifo, out, 20), "consumer");
  ASSERT_TRUE(sim.RunUntil([&] { return out.size() == 20; }, 200));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(out[static_cast<usize>(i)], i);
  }
}

// The register-transfer semantics the ring must keep, written the obvious
// way: a committed deque, this edge's pushes on the side, and a stall that
// freezes both ports.
struct ReferenceFifo {
  explicit ReferenceFifo(usize fifo_depth) : depth(fifo_depth) {}

  usize depth;
  std::deque<int> committed;
  std::vector<int> pending;
  Cycle stall_until = 0;

  bool Stalled(Cycle now) const { return now < stall_until; }
  usize Size(Cycle now) const { return Stalled(now) ? 0 : committed.size(); }
  bool CanPush(Cycle now) const {
    return !Stalled(now) && committed.size() + pending.size() < depth;
  }
  bool Push(Cycle now, int value) {
    if (!CanPush(now)) {
      return false;
    }
    pending.push_back(value);
    return true;
  }
  int Pop() {
    const int value = committed.front();
    committed.pop_front();
    return value;
  }
  void Commit() {
    committed.insert(committed.end(), pending.begin(), pending.end());
    pending.clear();
  }
};

// Counts what a schedule exercised, so the test can show it reached the
// cases that matter for a ring: every growth step, wrap-around, and a pop
// and a push on one edge while the FIFO is full.
struct ScheduleCoverage {
  usize max_occupancy = 0;
  usize pushes = 0;
  usize pop_push_at_full = 0;
  usize stalls = 0;
};

// Drives a SyncFifo<int> and the reference through one seeded schedule of
// pushes, pops and stalls, comparing Size, CanPush, Front and every Pop.
// Phases of 400 edges fill, churn and drain the FIFO in turn, so it crosses
// every occupancy from empty to full.
void RunDifferentialSchedule(usize depth, u64 seed, usize edges, ScheduleCoverage& coverage) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "dut", depth, 32);
  ReferenceFifo ref(depth);
  Rng rng(seed);
  int next_value = 0;
  for (usize edge = 0; edge < edges; ++edge) {
    const Cycle now = sim.now();
    const usize phase = (edge / 400) % 3;
    // Push odds out of 8: fill 6, churn 4, drain 2.
    const u64 push_odds = phase == 0 ? 6 : (phase == 1 ? 4 : 2);
    if (rng.NextBelow(200) == 0) {
      const Cycle cycles = 1 + rng.NextBelow(4);
      fifo.InjectStall(cycles);
      ref.stall_until = std::max(ref.stall_until, now + cycles);
      ++coverage.stalls;
    }
    const bool full_at_start = ref.Size(now) == depth;
    bool popped = false;
    bool pushed = false;
    const u64 ops = rng.NextBelow(2 * std::min<usize>(depth, 4) + 1);
    for (u64 op = 0; op < ops; ++op) {
      ASSERT_EQ(fifo.Size(), ref.Size(now)) << "edge " << edge;
      ASSERT_EQ(fifo.CanPush(), ref.CanPush(now)) << "edge " << edge;
      if (ref.Size(now) > 0) {
        ASSERT_EQ(fifo.Front(), ref.committed.front()) << "edge " << edge;
      }
      if (rng.NextBelow(8) < push_odds) {
        const bool accepted = ref.Push(now, next_value);
        ASSERT_EQ(fifo.Push(next_value), accepted) << "edge " << edge;
        pushed |= accepted;
        coverage.pushes += accepted ? 1 : 0;
        ++next_value;
      } else if (ref.Size(now) > 0) {
        ASSERT_EQ(fifo.Pop(), ref.Pop()) << "edge " << edge;
        popped = true;
      }
    }
    ASSERT_EQ(fifo.Size(), ref.Size(now)) << "edge " << edge;
    ASSERT_EQ(fifo.CanPush(), ref.CanPush(now)) << "edge " << edge;
    if (full_at_start && popped && pushed) {
      ++coverage.pop_push_at_full;
    }
    sim.Step();
    ref.Commit();
    coverage.max_occupancy = std::max(coverage.max_occupancy, ref.committed.size());
  }
}

TEST(SyncFifo, RingMatchesReferenceModelAcrossGrowthAndWrap) {
  for (const usize depth : {1u, 3u, 5u, 8u, 512u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    ScheduleCoverage coverage;
    RunDifferentialSchedule(depth, 0x5eed + depth, 12'000, coverage);
    if (HasFatalFailure()) {
      return;
    }
    // Reaching full depth from empty walks the ring through every doubling
    // (1, 2, 4, ... up to the depth rounded up to a power of two).
    EXPECT_EQ(coverage.max_occupancy, depth);
    // Many more pushes than slots: the head and tail wrapped many times.
    EXPECT_GT(coverage.pushes, 8 * std::bit_ceil(depth));
    EXPECT_GT(coverage.pop_push_at_full, 0u);
    EXPECT_GT(coverage.stalls, 0u);
  }
}

// --- Resource model -----------------------------------------------------------

TEST(ResourceModel, CamIpMatchesCalibration) {
  // 256 x 48-bit CAM: the paper attributes ~85% of the Emu switch's 3509
  // LUTs to this block, i.e. ~2980.
  const ResourceUsage cam = CamIpResources(256, 48, 8);
  EXPECT_NEAR(static_cast<double>(cam.luts), 2980.0, 15.0);
  EXPECT_GT(cam.bram_units, 0u);
}

TEST(ResourceModel, LogicCamCostsMoreLutsNoBram) {
  const ResourceUsage ip = CamIpResources(256, 48, 8);
  const ResourceUsage logic = LogicCamResources(256, 48, 8);
  EXPECT_GT(logic.luts, ip.luts);
  EXPECT_EQ(logic.bram_units, 0u);
}

TEST(ResourceModel, HlsControlCostsMoreThanRtl) {
  const ResourceUsage hls = HlsControlResources(12, 256);
  const ResourceUsage rtl = RtlControlResources(12, 256);
  EXPECT_GT(hls.luts, rtl.luts);
  EXPECT_GT(hls.regs, rtl.regs);
}

TEST(ResourceModel, BramScalesWithBits) {
  EXPECT_EQ(BramResources(18432).bram_units, 1u);
  EXPECT_EQ(BramResources(18433).bram_units, 2u);
  EXPECT_EQ(BramResources(10 * 18432).bram_units, 10u);
}

TEST(ResourceModel, UsageAddition) {
  ResourceUsage a{10, 20, 1};
  ResourceUsage b{5, 6, 2};
  const ResourceUsage sum = a + b;
  EXPECT_EQ(sum.luts, 15u);
  EXPECT_EQ(sum.regs, 26u);
  EXPECT_EQ(sum.bram_units, 3u);
}

// --- Module / Design -----------------------------------------------------------

class TestModule : public Module {
 public:
  TestModule(Simulator& sim, std::string name, ResourceUsage usage)
      : Module(sim, std::move(name)) {
    AddResources(usage);
  }
};

TEST(Design, SumsModuleResources) {
  Simulator sim;
  TestModule a(sim, "a", ResourceUsage{100, 50, 1});
  TestModule b(sim, "b", ResourceUsage{200, 70, 2});
  Design design;
  design.Add(a);
  design.Add(b);
  const ResourceUsage total = design.TotalResources();
  EXPECT_EQ(total.luts, 300u);
  EXPECT_EQ(total.regs, 120u);
  EXPECT_EQ(total.bram_units, 3u);
  const auto per_module = design.PerModule();
  ASSERT_EQ(per_module.size(), 2u);
  EXPECT_EQ(per_module[0].first, "a");
}

}  // namespace
}  // namespace emu
