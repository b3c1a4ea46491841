// Quiescence-kernel equivalence suite.
//
// The fast path (quiescence fast-forward + epoch-lazy WaitUntil evaluation,
// src/hdl/simulator.h) is an optimization shortcut, not a semantics change:
// with SetFastPath(false) every cycle executes and every parked predicate is
// evaluated per edge — the reference semantics. These tests run the same
// workload both ways and require bit-exact agreement on everything
// observable: cycle counts, egress frames (ports and bytes), service
// counters, fault logs, and resume counts. They also pin the WaitUntil wake
// contract: parked processes wake in registration order, on exactly the edge
// the predicate first holds.
//
// Idle-heavy workloads exercise fast-forward; saturated ones (small gaps,
// so nearly every edge leaves a process runnable) exercise the busy path,
// on which Run steps without consulting the quiescence scan.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/hdl/fifo.h"
#include "src/hdl/signal.h"
#include "src/hdl/vcd_tracer.h"
#include "src/ip/bram.h"
#include "src/ip/cam.h"
#include "src/ip/hash_cam.h"
#include "src/ip/logic_cam.h"
#include "src/net/udp.h"
#include "src/services/l3l4_filter.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"

namespace emu {
namespace {

u64 DigestEgress(const std::vector<EgressFrame>& egress) {
  u64 h = fnv::kOffset;
  for (const EgressFrame& entry : egress) {
    h = fnv::Bytes(fnv::Mix(h, entry.port), entry.frame.bytes());
  }
  return h;
}

// Everything a run can disagree on.
struct RunDigest {
  Cycle final_now = 0;
  usize egress_count = 0;
  u64 egress_digest = 0;
  std::vector<std::pair<std::string, u64>> metrics;
  u64 resumes_total = 0;  // per-process resumes must match edge-for-edge
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;

  // Takes the target's egress log along with everything else.
  void Capture(FpgaTarget& target, const MetricsRegistry& registry) {
    final_now = target.sim().now();
    const auto egress = target.TakeEgress();
    egress_count = egress.size();
    egress_digest = DigestEgress(egress);
    metrics = registry.Snapshot();
    const SimProfile profile = target.sim().ProfileReport();
    edges_run = profile.edges_run;
    cycles_fast_forwarded = profile.cycles_fast_forwarded;
    for (const ProcessProfile& process : profile.processes) {
      resumes_total += process.resumes;
    }
  }
};

void ExpectEquivalent(const RunDigest& fast, const RunDigest& exact) {
  EXPECT_EQ(fast.final_now, exact.final_now);
  EXPECT_EQ(fast.egress_count, exact.egress_count);
  EXPECT_EQ(fast.egress_digest, exact.egress_digest);
  EXPECT_EQ(fast.metrics, exact.metrics);
  EXPECT_EQ(fast.resumes_total, exact.resumes_total);
  // The exact run executed every cycle; the fast run must account for the
  // same span as executed edges plus fast-forwarded cycles.
  EXPECT_EQ(fast.edges_run + fast.cycles_fast_forwarded, exact.edges_run);
  EXPECT_EQ(exact.cycles_fast_forwarded, 0u);
}

// --- Service workloads, fast vs exact -------------------------------------------

const MacAddress kHostMacs[4] = {
    MacAddress::FromU48(0x02'00'00'00'00'01), MacAddress::FromU48(0x02'00'00'00'00'02),
    MacAddress::FromU48(0x02'00'00'00'00'03), MacAddress::FromU48(0x02'00'00'00'00'04)};
const Ipv4Address kHostIps[4] = {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                 Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4)};

RunDigest RunLearningSwitch(bool fast_path) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  // Teach all four MACs with broadcast frames, then unicast between them in
  // bursts with long idle gaps — the idle-heavy pattern the fast path eats.
  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port,
                  MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[port], kHostIps[port],
                                 Ipv4Address(10, 0, 0, 99), 1, 2},
                                std::vector<u8>{port}));
    target.Run(20'000);
  }
  for (usize burst = 0; burst < 5; ++burst) {
    for (usize i = 0; i < 8; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      const u8 dst = static_cast<u8>((i + 1 + burst) % 4);
      target.Inject(src, MakeUdpPacket({kHostMacs[dst], kHostMacs[src], kHostIps[src],
                                        kHostIps[dst], 1000, 2000},
                                       std::vector<u8>(1 + i, static_cast<u8>(burst))));
    }
    target.Run(50'000);
  }

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

TEST(KernelEquivalence, LearningSwitchBitExact) {
  const RunDigest fast = RunLearningSwitch(true);
  const RunDigest exact = RunLearningSwitch(false);
  ASSERT_GT(fast.egress_count, 0u);
  ExpectEquivalent(fast, exact);
  // The workload is idle-heavy: the fast path must actually skip cycles.
  EXPECT_GT(fast.cycles_fast_forwarded, 0u);
}

RunDigest RunNat(bool fast_path) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 30; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 8)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(5000 + i), 53},
        std::vector<u8>{'q', static_cast<u8>(i)});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    target.Run(i % 3 == 0 ? 30'000 : 500);  // mixed idle gaps and back-pressure
  }
  target.Run(100'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

TEST(KernelEquivalence, NatBitExact) {
  const RunDigest fast = RunNat(true);
  const RunDigest exact = RunNat(false);
  ASSERT_GT(fast.egress_count, 0u);
  ExpectEquivalent(fast, exact);
  EXPECT_GT(fast.cycles_fast_forwarded, 0u);
}

RunDigest RunMemcached(bool fast_path) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 40;
  MemaslapLoadgen loadgen(workload);
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    target.Inject(0, loadgen.PrewarmFrame(i));
    target.Run(2'000);
  }
  for (usize i = 0; i < 60; ++i) {
    target.Inject(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    target.Run(i % 5 == 0 ? 20'000 : 300);
  }
  target.Run(100'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

TEST(KernelEquivalence, MemcachedBitExact) {
  const RunDigest fast = RunMemcached(true);
  const RunDigest exact = RunMemcached(false);
  ASSERT_GT(fast.egress_count, 0u);
  ExpectEquivalent(fast, exact);
  EXPECT_GT(fast.cycles_fast_forwarded, 0u);
}

// --- Fault plans, fast vs exact --------------------------------------------------
//
// An attached registry samples armed targets per tick; across a quiescent
// jump the skipped ticks are booked in bulk. The fault log (site, tick,
// detail) and every response byte must replay identically either way.

struct FaultDigest {
  RunDigest run;
  u64 faults_fired = 0;
  u64 log_digest = 0;
};

FaultDigest RunNatUnderFaults(bool fast_path) {
  NatConfig config;
  config.max_mappings = 64;
  NatService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  FaultRegistry registry(7);
  service.RegisterFaultPoints(registry);
  target.sim().AttachFaultRegistry(&registry);
  const auto plan = ParseFaultPlan(
      "nat.table_full burst 20000 60000 0.5; nat.flows bernoulli 0.001");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return FaultDigest{};
  }
  registry.ArmPlan(*plan);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 40; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 100)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(1024 + i), 53},
        std::vector<u8>{'p'});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    target.Run(4'000);
  }
  registry.DisarmAll();
  target.Run(150'000);  // drain fast-forwards once disarmed

  FaultDigest digest;
  digest.run.Capture(target, metrics);
  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  target.sim().AttachFaultRegistry(nullptr);
  return digest;
}

TEST(KernelEquivalence, FaultPlanReplayBitExact) {
  const FaultDigest fast = RunNatUnderFaults(true);
  const FaultDigest exact = RunNatUnderFaults(false);
  ExpectEquivalent(fast.run, exact.run);
  EXPECT_EQ(fast.faults_fired, exact.faults_fired);
  EXPECT_EQ(fast.log_digest, exact.log_digest);
  EXPECT_GT(fast.faults_fired, 0u);  // the plan actually fired
  EXPECT_GT(fast.run.cycles_fast_forwarded, 0u);  // the drain actually jumped
}

// --- Saturated workloads, default vs exact ---------------------------------------
//
// Small inter-frame gaps keep the pipeline busy, so fast-forward windows are
// rare and the busy path dominates. A third run drives the default kernel
// through RunUntilEgress(limit), which stops at every egress: cutting a run
// at egress boundaries must not perturb a pipeline's results.

enum class Mode {
  kExact,      // SetFastPath(false)
  kDefault,    // the default fast path, driven through Run
  kPerEgress   // the default fast path, driven through RunUntilEgress
};

// Advances exactly `cycles`: kPerEgress re-enters RunUntilEgress after every
// egress until the deadline.
void Advance(FpgaTarget& target, Mode mode, Cycle cycles) {
  if (mode != Mode::kPerEgress) {
    target.Run(cycles);
    return;
  }
  const Cycle deadline = target.sim().now() + cycles;
  while (target.sim().now() < deadline) {
    target.RunUntilEgress(deadline - target.sim().now());
  }
}

RunDigest RunLearningSwitchSaturated(Mode mode) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(mode != Mode::kExact);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port,
                  MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[port], kHostIps[port],
                                 Ipv4Address(10, 0, 0, 99), 1, 2},
                                std::vector<u8>{port}));
    Advance(target, mode, 400);
  }
  // Back-to-back unicast: at most a handful of idle cycles between frames.
  for (usize i = 0; i < 120; ++i) {
    const u8 src = static_cast<u8>(i % 4);
    const u8 dst = static_cast<u8>((i + 1 + i / 4) % 4);
    target.Inject(src, MakeUdpPacket({kHostMacs[dst], kHostMacs[src], kHostIps[src],
                                      kHostIps[dst], 1000, 2000},
                                     std::vector<u8>(1 + i % 16, static_cast<u8>(i))));
    Advance(target, mode, i % 7 == 0 ? 600 : 90);
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

RunDigest RunNatSaturated(Mode mode) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(mode != Mode::kExact);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 80; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 8)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(5000 + i), 53},
        std::vector<u8>{'q', static_cast<u8>(i)});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    Advance(target, mode, i % 9 == 0 ? 800 : 110);  // back-pressure most frames
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

RunDigest RunMemcachedSaturated(Mode mode) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(mode != Mode::kExact);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 40;
  MemaslapLoadgen loadgen(workload);
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    target.Inject(0, loadgen.PrewarmFrame(i));
    Advance(target, mode, 250);
  }
  for (usize i = 0; i < 100; ++i) {
    target.Inject(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    Advance(target, mode, i % 11 == 0 ? 900 : 130);
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

FaultDigest RunNatUnderFaultsSaturated(Mode mode) {
  NatConfig config;
  config.max_mappings = 64;
  NatService service(config);
  FpgaTarget target(service);
  target.sim().SetFastPath(mode != Mode::kExact);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  FaultRegistry registry(7);
  service.RegisterFaultPoints(registry);
  target.sim().AttachFaultRegistry(&registry);
  const auto plan =
      ParseFaultPlan("nat.table_full burst 2000 9000 0.5; nat.flows bernoulli 0.001");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return FaultDigest{};
  }
  registry.ArmPlan(*plan);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 70; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac,
         Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 100)), Ipv4Address(8, 8, 8, 8),
         static_cast<u16>(1024 + i), 53},
        std::vector<u8>{'p'});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    Advance(target, mode, i % 8 == 0 ? 700 : 120);
  }
  Advance(target, mode, 20'000);

  FaultDigest digest;
  digest.run.Capture(target, metrics);
  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  target.sim().AttachFaultRegistry(nullptr);
  return digest;
}

constexpr Mode kDefaultModes[] = {Mode::kDefault, Mode::kPerEgress};

const char* ModeName(Mode mode) {
  return mode == Mode::kDefault ? "default vs exact" : "per-egress vs exact";
}

void ExpectSaturatedEquivalent(RunDigest (*workload)(Mode)) {
  const RunDigest exact = workload(Mode::kExact);
  ASSERT_GT(exact.egress_count, 0u);
  for (Mode mode : kDefaultModes) {
    SCOPED_TRACE(ModeName(mode));
    ExpectEquivalent(workload(mode), exact);
  }
}

TEST(KernelEquivalence, LearningSwitchSaturatedBitExact) {
  ExpectSaturatedEquivalent(RunLearningSwitchSaturated);
}

TEST(KernelEquivalence, NatSaturatedBitExact) { ExpectSaturatedEquivalent(RunNatSaturated); }

TEST(KernelEquivalence, MemcachedSaturatedBitExact) {
  ExpectSaturatedEquivalent(RunMemcachedSaturated);
}

TEST(KernelEquivalence, NatUnderFaultPlanSaturatedBitExact) {
  const FaultDigest exact = RunNatUnderFaultsSaturated(Mode::kExact);
  ASSERT_GT(exact.run.egress_count, 0u);
  ASSERT_GT(exact.faults_fired, 0u);
  for (Mode mode : kDefaultModes) {
    SCOPED_TRACE(ModeName(mode));
    const FaultDigest got = RunNatUnderFaultsSaturated(mode);
    ExpectEquivalent(got.run, exact.run);
    EXPECT_EQ(got.faults_fired, exact.faults_fired);
    EXPECT_EQ(got.log_digest, exact.log_digest);
  }
}

// Counts edges: while one is attached every cycle must execute.
class EdgeCounter : public EdgeObserver {
 public:
  void OnEdge(Cycle now) override {
    if (count_ == 0) {
      first_ = now;
    }
    last_ = now;
    ++count_;
  }
  u64 count() const { return count_; }
  Cycle first() const { return first_; }
  Cycle last() const { return last_; }

 private:
  u64 count_ = 0;
  Cycle first_ = 0;
  Cycle last_ = 0;
};

// Attaching an EdgeObserver mid-run must switch the kernel to gapless
// per-edge stepping for the observed span, keep digests bit-exact, and
// resume fast-forwarding after detach.
TEST(KernelEquivalence, EdgeObserverMidRunStepsGapless) {
  auto run = [](EdgeCounter* counter) {
    LearningSwitch service;
    FpgaTarget target(service);
    MetricsRegistry metrics;
    service.RegisterMetrics(metrics);

    for (usize i = 0; i < 40; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      target.Inject(src, MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[src],
                                        kHostIps[src], Ipv4Address(10, 0, 0, 99), 1, 2},
                                       std::vector<u8>{static_cast<u8>(i)}));
      target.Run(150);
    }
    if (counter != nullptr) {
      target.sim().AttachEdgeObserver(counter);
    }
    for (usize i = 0; i < 40; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      const u8 dst = static_cast<u8>((i + 1) % 4);
      target.Inject(src, MakeUdpPacket({kHostMacs[dst], kHostMacs[src], kHostIps[src],
                                        kHostIps[dst], 7, 9},
                                       std::vector<u8>{static_cast<u8>(i)}));
      target.Run(150);
    }
    if (counter != nullptr) {
      target.sim().DetachEdgeObserver(counter);
    }
    target.Run(30'000);

    RunDigest digest;
    digest.Capture(target, metrics);
    return digest;
  };

  EdgeCounter counter;
  const RunDigest observed = run(&counter);
  const RunDigest unobserved = run(nullptr);

  // The observer saw every single edge of its span: 40 injections * 150
  // cycles, gapless — proof fast-forward stood down.
  EXPECT_EQ(counter.count(), 40u * 150u);
  EXPECT_EQ(counter.last() - counter.first() + 1, counter.count());

  // And observation changed nothing observable.
  EXPECT_EQ(observed.final_now, unobserved.final_now);
  EXPECT_EQ(observed.egress_count, unobserved.egress_count);
  EXPECT_EQ(observed.egress_digest, unobserved.egress_digest);
  EXPECT_EQ(observed.metrics, unobserved.metrics);
  EXPECT_EQ(observed.resumes_total, unobserved.resumes_total);
  EXPECT_EQ(observed.edges_run + observed.cycles_fast_forwarded,
            unobserved.edges_run + unobserved.cycles_fast_forwarded);
  EXPECT_GT(observed.cycles_fast_forwarded, 0u);  // fast-forward resumed after detach
}

// --- VCD equivalence --------------------------------------------------------------
//
// An attached tracer pins the kernel per-edge, so its dump must be identical
// with the fast path nominally on or off.

std::string RenderSwitchVcd(bool fast_path) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  VcdTracer tracer(target.sim());
  tracer.AddSignal("lookups", 16, [&] { return metrics.Get("switch.lookups"); });
  tracer.AddSignal("learned", 16, [&] { return metrics.Get("switch.learned"); });
  tracer.Sample();
  tracer.Attach();
  target.Inject(0, MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[0], kHostIps[0],
                                  kHostIps[1], 1, 2},
                                 std::vector<u8>{1}));
  target.Run(5'000);
  tracer.Detach();
  return tracer.Render();
}

TEST(KernelEquivalence, AttachedVcdTraceIdentical) {
  const std::string fast = RenderSwitchVcd(true);
  const std::string exact = RenderSwitchVcd(false);
  EXPECT_EQ(fast, exact);
  EXPECT_NE(fast.find("$enddefinitions"), std::string::npos);
}

// --- WaitUntil wake semantics ----------------------------------------------------

HwProcess Consumer(SyncFifo<int>& fifo, std::vector<int>& log, int tag) {
  for (;;) {
    co_await WaitUntil([&fifo] { return !fifo.Empty(); });
    log.push_back(tag * 1000 + fifo.Pop());
    co_await Pause();
  }
}

// Two consumers parked on one FIFO: pushes wake them in registration order,
// and the loser of the race re-parks without observing anything.
void CheckWakeOrdering(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "f", 8, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "first");
  sim.AddProcess(Consumer(fifo, log, 2), "second");
  sim.Run(10);  // both park
  EXPECT_TRUE(log.empty());

  fifo.Push(7);
  sim.Run(10);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 1007);  // the first-registered consumer wins

  fifo.Push(8);
  fifo.Push(9);
  sim.Run(10);
  // Both values land at one commit; first-registered pops first.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], 1008);
  EXPECT_EQ(log[2], 2009);
}

TEST(WaitUntilTest, WakeOrderFollowsRegistrationOrderFast) { CheckWakeOrdering(true); }
TEST(WaitUntilTest, WakeOrderFollowsRegistrationOrderExact) { CheckWakeOrdering(false); }

// A predicate that is already true must not cost an edge: WaitUntil then
// continues within the same cycle, exactly like the `if (ready) work` shape
// it replaces.
HwProcess ImmediateWaiter(SyncFifo<int>& fifo, Reg<u64>& out) {
  co_await WaitUntil([&fifo] { return !fifo.Empty(); });
  out.Write(static_cast<u64>(fifo.Pop()));
  co_await Pause();
}

TEST(WaitUntilTest, TruePredicateContinuesSameCycle) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 4, 32);
  Reg<u64> out(sim, 0);
  fifo.Push(41);
  sim.Run(1);  // commit the push before the process first runs
  sim.AddProcess(ImmediateWaiter(fifo, out), "waiter");
  sim.Run(1);
  EXPECT_EQ(out.Read(), 41u);  // popped and written on its first edge
}

// A parked producer polling for space wakes on the same edge a
// later-registered consumer frees a slot (pop visibility is intra-cycle).
HwProcess BlockedProducer(SyncFifo<int>& fifo, int count, u64& pushes) {
  for (int i = 0; i < count; ++i) {
    co_await WaitUntil([&fifo] { return fifo.PollCanPush(); });
    fifo.Push(i);
    ++pushes;
    co_await Pause();
  }
}

HwProcess SlowDrain(SyncFifo<int>& fifo, Cycle period, u64& pops) {
  for (;;) {
    co_await PauseFor(period);
    if (!fifo.Empty()) {
      fifo.Pop();
      ++pops;
    }
  }
}

void CheckBackpressureWake(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "f", 2, 32);
  u64 pushes = 0;
  u64 pops = 0;
  sim.AddProcess(BlockedProducer(fifo, 10, pushes), "producer");
  sim.AddProcess(SlowDrain(fifo, 50, pops), "drain");
  sim.Run(1'000);
  EXPECT_EQ(pushes, 10u);  // producer squeezed everything through depth 2
  EXPECT_GE(pops, 8u);
}

TEST(WaitUntilTest, BackpressuredProducerWakesOnPopFast) { CheckBackpressureWake(true); }
TEST(WaitUntilTest, BackpressuredProducerWakesOnPopExact) { CheckBackpressureWake(false); }

// A stalled FIFO un-stalls by the clock, not by any process action: the
// forced wake scheduled at stall expiry must un-park the consumer even
// though no producer bumps the epoch in between.
TEST(WaitUntilTest, StallExpiryWakesParkedConsumer) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 4, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "consumer");
  fifo.Push(5);
  sim.Run(2);  // commit, consumer pops... unless stalled first
  log.clear();
  fifo.Push(6);
  sim.Run(1);
  fifo.InjectStall(100);
  sim.Run(50);
  EXPECT_TRUE(log.empty());  // stalled: consumer sees empty
  sim.Run(100);
  ASSERT_EQ(log.size(), 1u);  // expiry wake fired with no producer activity
  EXPECT_EQ(log[0], 1006);
}

// --- Lost-wakeup regressions ------------------------------------------------------
//
// Every site that mutates state a WaitUntil predicate can observe must bump
// the wake epoch, or the fast path sleeps through the mutation while the
// exact path (which re-evaluates every parked predicate each edge) sees it.
// Each scenario below parks a watcher on one mutation site, fires the
// mutation from an otherwise-sleeping process, and requires the watcher to
// wake on the same edge with the fast path on and off.

// Runs `action` once after `at` cycles, then sleeps out of the way so the
// mutation site's own NotifyWake is the only thing that can un-park a
// watcher.
HwProcess DelayedAction(Cycle at, std::function<void()> action) {
  co_await PauseFor(at);
  action();
  co_await PauseFor(1'000'000);
}

struct WakeResult {
  bool woke = false;
  Cycle woke_at = 0;
  u64 fast_forwarded = 0;
};

HwProcess WakeWatcher(Simulator& sim, std::function<bool()> pred, WakeResult& result) {
  co_await WaitUntil([&pred] { return pred(); });
  result.woke = true;
  result.woke_at = sim.now();
  co_await PauseFor(1'000'000);
}

// A design factory builds the watched state into `sim` and returns the
// watcher predicate plus the mutation that should flip it. State is owned by
// the returned closures (shared_ptr captures) so it outlives the run.
using WakeDesign = std::function<
    std::pair<std::function<bool()>, std::function<void()>>(Simulator& sim)>;

WakeResult RunWakeScenario(bool fast_path, const WakeDesign& design) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  auto [pred, mutate] = design(sim);
  WakeResult result;
  sim.AddProcess(WakeWatcher(sim, std::move(pred), result), "watcher");
  sim.AddProcess(DelayedAction(50, std::move(mutate)), "mutator");
  sim.Run(500);
  result.fast_forwarded = sim.ProfileReport().cycles_fast_forwarded;
  return result;
}

void CheckMutationWakes(const char* site, const WakeDesign& design) {
  const WakeResult exact = RunWakeScenario(false, design);
  const WakeResult fast = RunWakeScenario(true, design);
  ASSERT_TRUE(exact.woke) << site << ": scenario broken, exact mode never woke";
  EXPECT_TRUE(fast.woke) << site << ": fast path slept through the mutation (lost wakeup)";
  EXPECT_EQ(fast.woke_at, exact.woke_at) << site;
  // The run is idle-heavy by construction; a fast run that never jumped was
  // not exercising the epoch-lazy path at all.
  EXPECT_GT(fast.fast_forwarded, 0u) << site;
}

TEST(LostWakeupRegression, BramCommitWakesParkedReader) {
  CheckMutationWakes("bram.commit", [](Simulator& sim) {
    auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [bram] { return bram->Read(3) == 42; }, [bram] { bram->Write(3, 42); });
  });
}

TEST(LostWakeupRegression, CamCommitWakesParkedReader) {
  CheckMutationWakes("cam.commit", [](Simulator& sim) {
    auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
  });
}

TEST(LostWakeupRegression, LogicCamCommitWakesParkedReader) {
  CheckMutationWakes("logic_cam.commit", [](Simulator& sim) {
    auto cam = std::make_shared<LogicCam>(sim, "lc", 8, 16, 16);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
  });
}

TEST(LostWakeupRegression, HashCamWriteWakesParkedReader) {
  CheckMutationWakes("hash_cam.write", [](Simulator& sim) {
    auto hash = std::make_shared<HashCam>(sim, "h", 8);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [hash] {
          hash->Read(7);
          return hash->matched();
        },
        [hash] { hash->Write(7, 1); });
  });
}

TEST(LostWakeupRegression, HashCamEraseWakesParkedReader) {
  CheckMutationWakes("hash_cam.erase", [](Simulator& sim) {
    auto hash = std::make_shared<HashCam>(sim, "h", 8);
    hash->Write(9, 1);  // pre-bound before any process parks
    return std::pair<std::function<bool()>, std::function<void()>>(
        [hash] {
          hash->Read(9);
          return !hash->matched();
        },
        [hash] { hash->Erase(9); });
  });
}

TEST(LostWakeupRegression, BramSeuFlipWakesParkedReader) {
  CheckMutationWakes("bram.seu", [](Simulator& sim) {
    auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [bram] { return bram->Read(0) == 1; }, [bram] { bram->InjectBitFlip(0); });
  });
}

TEST(LostWakeupRegression, CamSeuFlipWakesParkedReader) {
  CheckMutationWakes("cam.seu", [](Simulator& sim) {
    auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
    // Bit 0 is slot 0's valid flag: the flip resurrects an all-zero entry,
    // so a parked Lookup(0) starts hitting.
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(0).hit; }, [cam] { cam->InjectBitFlip(0); });
  });
}

TEST(LostWakeupRegression, CaspVariableWriteWakesParkedReader) {
  CheckMutationWakes("casp.store_var", [](Simulator& sim) {
    auto controller = std::make_shared<DirectionController>();
    controller->SetWakeHook([&sim] { sim.NotifyWake(); });
    auto value = std::make_shared<u64>(0);
    controller->machine().BindVariable(
        {"v", [value] { return *value; }, [value](u64 x) { *value = x; }});
    const auto var = controller->machine().VariableId("v");
    CaspProgram program = {{CaspOp::kPushConst, 42, 0}, {CaspOp::kStoreVar, 0, *var}};
    controller->machine().InstallProcedure("poke", "t", program);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [value] { return *value == 42; }, [controller] { controller->Activate("poke"); });
  });
}

// Impairer-delayed deliveries land on the wire at a future cycle while the
// pipeline is otherwise quiescent; the port's Deliver must announce each
// arrival so the fast path replays the delayed schedule bit-exactly.
FaultDigest RunImpairedSwitch(bool fast_path) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  FaultRegistry registry(23);
  FrameImpairer tap(registry, "ingress");
  target.sim().AttachFaultRegistry(&registry);
  const auto plan =
      ParseFaultPlan("ingress.delay bernoulli 0.4 30000; ingress.dup bernoulli 0.1");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return FaultDigest{};
  }
  registry.ArmPlan(*plan);

  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port,
                  MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[port], kHostIps[port],
                                 Ipv4Address(10, 0, 0, 99), 1, 2},
                                std::vector<u8>{port}));
    target.Run(20'000);
  }
  for (usize i = 0; i < 24; ++i) {
    const u8 src = static_cast<u8>(i % 4);
    const u8 dst = static_cast<u8>((i + 1) % 4);
    Packet frame = MakeUdpPacket(
        {kHostMacs[dst], kHostMacs[src], kHostIps[src], kHostIps[dst], 1000, 2000},
        std::vector<u8>(1 + i % 7, static_cast<u8>(i)));
    const Cycle now = target.sim().now();
    const FrameImpairer::Decision d = tap.Decide(now, frame.size());
    if (!d.drop) {
      // The tap runs on the cycle clock, so delay magnitudes are cycles.
      const Cycle at = now + static_cast<Cycle>(d.extra_delay_ps);
      if (d.duplicate) {
        target.Inject(src, frame, at);
      }
      target.Inject(src, std::move(frame), at);
    }
    target.Run(15'000);
  }
  registry.DisarmAll();
  target.Run(100'000);

  FaultDigest digest;
  digest.run.Capture(target, metrics);
  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  digest.log_digest = digest.log_digest * fnv::kPrime ^ tap.delayed();
  digest.log_digest = digest.log_digest * fnv::kPrime ^ tap.duplicated();
  target.sim().AttachFaultRegistry(nullptr);
  return digest;
}

TEST(LostWakeupRegression, ImpairerDelayedDeliveryBitExact) {
  const FaultDigest fast = RunImpairedSwitch(true);
  const FaultDigest exact = RunImpairedSwitch(false);
  ExpectEquivalent(fast.run, exact.run);
  EXPECT_EQ(fast.faults_fired, exact.faults_fired);
  EXPECT_EQ(fast.log_digest, exact.log_digest);
  EXPECT_GT(fast.faults_fired, 0u);  // the delay plan actually rescheduled frames
  EXPECT_GT(fast.run.cycles_fast_forwarded, 0u);
}

// --- Forced wake inside a skipped quiescent window --------------------------------
//
// A stall expiry schedules a forced wake that lands in the middle of what
// would otherwise be one long quiescent window. The fast path must split the
// window at the wake, and the registry's per-point opportunity books (bulk
// NoteSkippedTicks for jumped spans + per-edge Tick for executed edges) must
// total exactly what per-edge sampling records.

HwProcess PopRecorder(SyncFifo<int>& fifo, Simulator& sim, std::vector<Cycle>& pops) {
  for (;;) {
    co_await WaitUntil([&fifo] { return !fifo.Empty(); });
    fifo.Pop();
    pops.push_back(sim.now());
    co_await Pause();
  }
}

// Arrives mid-stall, backpressures through it, and pushes the moment the
// stall expires — which only a consumed forced wake can announce.
HwProcess StalledProducer(SyncFifo<int>& fifo, Cycle at) {
  co_await PauseFor(at);
  co_await WaitUntil([&fifo] { return fifo.PollCanPush(); });
  fifo.Push(7);
  co_await PauseFor(1'000'000);
}

struct ForcedWakeDigest {
  std::vector<Cycle> pops;
  u64 faults_fired = 0;
  u64 log_digest = 0;
  std::vector<std::pair<std::string, u64>> opportunities;
  Cycle final_now = 0;
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;
};

ForcedWakeDigest RunForcedWakeMidQuiescence(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "q", 4, 32);
  ForcedWakeDigest digest;
  sim.AddProcess(PopRecorder(fifo, sim, digest.pops), "consumer");
  // The producer arrives at ~450, inside the stall window [400, 700): both
  // processes then park, and the pop chain depends on the stall-expiry
  // forced wake at 700 — which the fault tick at 400 scheduled into the
  // middle of an otherwise-idle span.
  sim.AddProcess(StalledProducer(fifo, 450), "producer");

  FaultRegistry registry(11);
  registry.RegisterStallTarget("q.stall", [&fifo](u64 cycles) {
    fifo.InjectStall(static_cast<Cycle>(cycles));
  });
  sim.AttachFaultRegistry(&registry);
  const auto plan = ParseFaultPlan("q.stall oneshot 400 300");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return digest;
  }
  registry.ArmPlan(*plan);
  sim.Run(2'000);

  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  for (const auto& point : registry.points()) {
    digest.opportunities.emplace_back(point->name(), point->opportunities());
  }
  digest.final_now = sim.now();
  const SimProfile profile = sim.ProfileReport();
  digest.edges_run = profile.edges_run;
  digest.cycles_fast_forwarded = profile.cycles_fast_forwarded;
  sim.AttachFaultRegistry(nullptr);
  return digest;
}

TEST(KernelEquivalence, ForcedWakeMidQuiescentWindowBooksIdentically) {
  const ForcedWakeDigest fast = RunForcedWakeMidQuiescence(true);
  const ForcedWakeDigest exact = RunForcedWakeMidQuiescence(false);
  ASSERT_EQ(exact.faults_fired, 1u);  // the stall actually fired
  ASSERT_EQ(exact.pops.size(), 1u);   // and the pop waited for its expiry
  EXPECT_GT(exact.pops[0], 699u);     // the push waited out the stall
  EXPECT_EQ(fast.pops, exact.pops);
  EXPECT_EQ(fast.faults_fired, exact.faults_fired);
  EXPECT_EQ(fast.log_digest, exact.log_digest);
  // Injection-opportunity books must match per point: a fast-forward that
  // mis-books the span around the forced wake shows up here.
  EXPECT_EQ(fast.opportunities, exact.opportunities);
  EXPECT_EQ(fast.final_now, exact.final_now);
  EXPECT_EQ(fast.edges_run + fast.cycles_fast_forwarded, exact.edges_run);
  EXPECT_GT(fast.cycles_fast_forwarded, 0u);  // the idle spans actually jumped
}

// --- Poll-only edges --------------------------------------------------------------
//
// A testbench Pop or an egress bumps the wake epoch, which leaves every parked
// predicate stale. When no process is due, the quiescence scan polls those
// predicates itself and jumps if all stay false, so the edge that used to
// execute only to poll them joins the jump. A jump that ends at a sleeper's
// wake steps into that edge without scanning again. Both workloads below
// drive a target the way a cluster node or a chain stage does.

struct PollOnlyRun {
  Cycle final_now = 0;
  usize egress_count = 0;
  u64 egress_digest = 0;
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;
  std::vector<ProcessProfile> processes;

  void Capture(Simulator& sim, const std::vector<Packet>& egress) {
    final_now = sim.now();
    egress_count = egress.size();
    egress_digest = fnv::kOffset;
    for (const Packet& frame : egress) {
      egress_digest = fnv::Bytes(egress_digest, frame.bytes());
    }
    const SimProfile profile = sim.ProfileReport();
    edges_run = profile.edges_run;
    cycles_fast_forwarded = profile.cycles_fast_forwarded;
    processes = profile.processes;
  }
};

// A memcached request at a time through CpuTarget::Deliver, as a cluster
// node serves it.
PollOnlyRun RunCpuMemcachedRequests(bool fast_path) {
  MemcachedConfig config;
  MemcachedService service(config);
  CpuTarget target(service);
  target.sim().SetFastPath(fast_path);
  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 4;
  workload.value_bytes = 24;
  MemaslapLoadgen loadgen(workload);
  std::vector<Packet> egress;
  for (usize i = 0; i < 24; ++i) {
    Packet request = i < loadgen.prewarm_count() ? loadgen.PrewarmFrame(i)
                                                 : loadgen.WorkloadFrame(i);
    for (Packet& reply : target.Deliver(std::move(request))) {
      egress.push_back(std::move(reply));
    }
  }
  PollOnlyRun run;
  run.Capture(target.sim(), egress);
  return run;
}

// A chain's filter stage: one frame in, run to its egress, drain, take it.
PollOnlyRun RunFpgaFilterTraversals(bool fast_path) {
  L3L4Filter service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  const MacAddress client = MacAddress::FromU48(0x02'00'00'00'0c'01);
  const MacAddress host = MacAddress::FromU48(0x02'00'00'00'0c'02);
  std::vector<Packet> egress;
  for (usize i = 0; i < 16; ++i) {
    const bool forward = i % 2 == 0;
    target.Inject(forward ? 1 : 0,
                  MakeUdpPacket({forward ? host : client, forward ? client : host,
                                 Ipv4Address(192, 168, 1, 10), Ipv4Address(10, 0, 0, 5),
                                 static_cast<u16>(4000 + i), 11211},
                                std::vector<u8>(8 + i, static_cast<u8>(i))));
    target.RunUntilEgress(200'000);
    target.Run(64);
    for (EgressFrame& out : target.TakeEgress()) {
      egress.push_back(std::move(out.frame));
    }
  }
  PollOnlyRun run;
  run.Capture(target.sim(), egress);
  return run;
}

struct PollOnlyPins {
  u64 edges_run;                // the default kernel's executed edges
  std::vector<u64> polls;       // per process, in registration order
};

void CheckPollOnlyEdgesJoinTheJump(const char* what, PollOnlyRun (*workload)(bool),
                                   const PollOnlyPins& pins) {
  SCOPED_TRACE(what);
  const PollOnlyRun fast = workload(true);
  const PollOnlyRun exact = workload(false);
  ASSERT_GT(fast.egress_count, 0u);
  EXPECT_EQ(fast.final_now, exact.final_now);
  EXPECT_EQ(fast.egress_count, exact.egress_count);
  EXPECT_EQ(fast.egress_digest, exact.egress_digest);
  ASSERT_EQ(fast.processes.size(), exact.processes.size());
  ASSERT_EQ(fast.processes.size(), pins.polls.size());
  for (usize i = 0; i < fast.processes.size(); ++i) {
    EXPECT_EQ(fast.processes[i].resumes, exact.processes[i].resumes) << fast.processes[i].name;
    // The exact kernel polls every parked predicate on every edge; the default
    // kernel polls a predicate once per wake epoch, on an edge or in the scan,
    // and so as often as it did when every poll took an edge.
    EXPECT_EQ(fast.processes[i].polls, pins.polls[i]) << fast.processes[i].name;
  }
  EXPECT_EQ(fast.edges_run, pins.edges_run);
  EXPECT_EQ(fast.edges_run + fast.cycles_fast_forwarded, exact.edges_run);
}

TEST(KernelEquivalence, PollOnlyEdgesJoinTheJump) {
  // 24 requests: 312 edges (13.0 per request) when poll-only edges executed.
  CheckPollOnlyEdgesJoinTheJump("cpu memcached", RunCpuMemcachedRequests,
                                PollOnlyPins{264, {78, 72}});
  // 16 traversals: 306 edges when poll-only edges executed.
  CheckPollOnlyEdgesJoinTheJump(
      "fpga filter", RunFpgaFilterTraversals,
      PollOnlyPins{255, {208, 207, 208, 208, 191, 176, 160, 144, 127, 130, 146, 139, 131, 131}});
}

// --- Profiling --------------------------------------------------------------------

TEST(ProfileReportTest, CountsResumesAndJumps) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 8, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "consumer");
  sim.SetProfilingMode(ProfilingMode::kFull);
  fifo.Push(1);
  sim.Run(10'000);

  const SimProfile profile = sim.ProfileReport();
  ASSERT_EQ(profile.processes.size(), 1u);
  EXPECT_EQ(profile.processes[0].name, "consumer");
  EXPECT_GE(profile.processes[0].resumes, 1u);
  EXPECT_GT(profile.processes[0].wall_ns, 0u);
  EXPECT_GT(profile.cycles_fast_forwarded, 0u);  // parked consumer quiesces
  EXPECT_GT(profile.jumps, 0u);
  EXPECT_EQ(profile.edges_run + profile.cycles_fast_forwarded, 10'000u);
}

HwProcess CountEveryEdge(Reg<u64>& counter) {
  for (;;) {
    counter.Write(counter.Read() + 1);
    co_await Pause();
  }
}

// A process that suspends on Pause() leaves itself runnable, so every edge
// is due: Run scans for a quiescent window only before the first edge, and
// still matches the exact reference edge for edge.
TEST(ProfileReportTest, RunnableProcessSkipsQuiescenceScan) {
  const auto run = [](bool fast_path) {
    Simulator sim;
    sim.SetFastPath(fast_path);
    sim.SetProfilingMode(ProfilingMode::kFull);
    Reg<u64> counter(sim, 0);
    sim.AddProcess(CountEveryEdge(counter), "counter");
    sim.Run(10'000);
    return std::make_pair(counter.Read(), sim.ProfileReport());
  };
  const auto [fast_count, fast] = run(true);
  const auto [exact_count, exact] = run(false);
  EXPECT_EQ(fast.quiescence_scan.calls, 1u);
  EXPECT_EQ(fast_count, exact_count);
  EXPECT_EQ(fast.edges_run, exact.edges_run);
  EXPECT_EQ(fast.edges_run, 10'000u);
}

HwProcess WakeEvery100(Reg<u64>& wakes) {
  for (;;) {
    wakes.Write(wakes.Read() + 1);
    co_await PauseFor(100);
  }
}

// A jump that ends at a sleeper's wake leaves that edge due, so Run steps
// into it without a second scan (which could only return 0): one scan per
// jump, plus the first, which finds the new process runnable.
TEST(ProfileReportTest, JumpToAWakeSkipsTheScan) {
  const auto run = [](bool fast_path) {
    Simulator sim;
    sim.SetFastPath(fast_path);
    sim.SetProfilingMode(ProfilingMode::kFull);
    Reg<u64> wakes(sim, 0);
    sim.AddProcess(WakeEvery100(wakes), "sleeper");
    sim.Run(10'000);
    return std::make_pair(wakes.Read(), sim.ProfileReport());
  };
  const auto [fast_wakes, fast] = run(true);
  const auto [exact_wakes, exact] = run(false);
  EXPECT_EQ(fast_wakes, exact_wakes);
  EXPECT_EQ(fast.jumps, 100u);
  EXPECT_EQ(fast.quiescence_scan.calls, fast.jumps + 1);
  EXPECT_EQ(fast.edges_run + fast.cycles_fast_forwarded, exact.edges_run);
}

// --- Testbench writes between Run calls -------------------------------------------
//
// A write from outside any process sits buffered until a commit edge. The
// element's mutator puts it on the dirty queue, and the quiescence scan reads
// only that queue: the next Run must execute exactly one edge to commit the
// write, then jump the rest of the idle window.

HwProcess SleepForever() {
  for (;;) {
    co_await PauseFor(1'000'000);
  }
}

// A design factory builds one element into `sim` and returns the testbench
// write plus the check that it has committed.
using TestbenchWriteDesign = std::function<
    std::pair<std::function<void()>, std::function<bool()>>(Simulator& sim)>;

void CheckTestbenchWriteCommitsBeforeJump(const char* kind, const TestbenchWriteDesign& design) {
  Simulator sim;
  auto [write, committed] = design(sim);
  sim.AddProcess(SleepForever(), "sleeper");
  sim.Run(100);
  const SimProfile before = sim.ProfileReport();
  ASSERT_GT(before.cycles_fast_forwarded, 0u) << kind << ": the idle design never jumped";
  write();
  EXPECT_FALSE(committed()) << kind << ": a write must wait for a commit edge";
  sim.Run(1'000);
  const SimProfile after = sim.ProfileReport();
  EXPECT_TRUE(committed()) << kind << ": the jump skipped the pending commit";
  EXPECT_EQ(after.edges_run - before.edges_run, 1u) << kind;
  EXPECT_EQ(after.cycles_fast_forwarded - before.cycles_fast_forwarded, 999u) << kind;
}

TEST(QuiescentCommit, TestbenchWriteCommitsBeforeTheJump) {
  CheckTestbenchWriteCommitsBeforeJump("reg", [](Simulator& sim) {
    auto reg = std::make_shared<Reg<u64>>(sim, u64{0});
    return std::pair<std::function<void()>, std::function<bool()>>(
        [reg] { reg->Write(42); }, [reg] { return reg->Read() == 42; });
  });
  CheckTestbenchWriteCommitsBeforeJump("sync_fifo", [](Simulator& sim) {
    auto fifo = std::make_shared<SyncFifo<int>>(sim, "f", 8, 32);
    return std::pair<std::function<void()>, std::function<bool()>>(
        [fifo] { fifo->Push(7); }, [fifo] { return fifo->Size() == 1; });
  });
  CheckTestbenchWriteCommitsBeforeJump("bram", [](Simulator& sim) {
    auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
    return std::pair<std::function<void()>, std::function<bool()>>(
        [bram] { bram->Write(3, 42); }, [bram] { return bram->Read(3) == 42; });
  });
  CheckTestbenchWriteCommitsBeforeJump("cam", [](Simulator& sim) {
    auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
    return std::pair<std::function<void()>, std::function<bool()>>(
        [cam] { cam->Write(0, 7, 1); }, [cam] { return cam->Lookup(7).hit; });
  });
  CheckTestbenchWriteCommitsBeforeJump("logic_cam", [](Simulator& sim) {
    auto cam = std::make_shared<LogicCam>(sim, "lc", 8, 16, 16);
    return std::pair<std::function<void()>, std::function<bool()>>(
        [cam] { cam->Write(0, 7, 1); }, [cam] { return cam->Lookup(7).hit; });
  });
}

}  // namespace
}  // namespace emu
