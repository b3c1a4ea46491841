// emu-scope: cycle-timestamped tracing + the telemetry pipeline, end to end.
//
// Builds one mixed topology — an L2 learning switch with two stations, a NAT
// gateway between an internal and an external host, and a memcached server
// under a memaslap client — with every node and host on its own shard of the
// parallel runner. A TraceSession records the packet flight of every frame
// (link transit, FIFO residency, service stage spans, per-node service time)
// while a MetricsSampler snapshots the memcached node's counters in-run.
//
// Artifacts, in a fresh directory /tmp/emu_scope.XXXXXX per run (mkdtemp;
// printed on stdout, so concurrent runs never overwrite each other):
//   trace.json   — Chrome/Perfetto trace; open in https://ui.perfetto.dev
//   metrics.prom — Prometheus text exposition of every counter, gauge and
//                  latency histogram in the run
//   profile.json — emu-pulse kernel phase profile of the memcached node
//                  (sampled profiling mode)
//
// The driver then re-runs the identical workload at threads=4 and checks the
// exported trace is byte-identical — the emu-par determinism contract
// extended to observability. Kernel profiling is wall-clock-only state, so
// it stays enabled across both runs without perturbing the comparison.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/obs/decompose.h"
#include "src/obs/pulse.h"
#include "src/obs/sampler.h"
#include "src/obs/trace.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace {

using namespace emu;  // example code; library code never does this

struct RunResult {
  // The session outlives the run so MergedEvents' string views stay valid.
  std::unique_ptr<obs::TraceSession> session;
  std::string trace_json;
  std::string prom_text;
  std::string sampler_csv;
  usize sampler_rows = 0;
  u64 events = 0;
  u64 trace_events_dropped = 0;
  std::vector<obs::MergedEvent> merged;
  SimProfile profile;  // memcached node's kernel phase profile (sampled mode)
};

// One full traced run of the mixed workload. Fresh everything per call so
// the determinism comparison runs on identical initial state.
RunResult RunOnce(usize threads) {
  RunResult result;
  result.session = std::make_unique<obs::TraceSession>();
  result.session->Install();

  LearningSwitch switch_service;
  NatConfig nat_config;
  NatService nat_service(nat_config);
  MemcachedConfig mc_config;
  MemcachedService mc_service(mc_config);

  // Three stars side by side: the nodes run different services and have
  // different host counts, and every element gets its own shard.
  TopologyBuilder topo;
  ServiceNode& sw = topo.BuildStar(
      switch_service,
      {{"s0", MacAddress::FromU48(0x02'00'00'00'0a'01), Ipv4Address(10, 0, 0, 1)},
       {"s1", MacAddress::FromU48(0x02'00'00'00'0a'02), Ipv4Address(10, 0, 0, 2)}});
  // NAT convention: port 0 faces the external network, port 1 the internal.
  ServiceNode& nat = topo.BuildStar(
      nat_service,
      {{"ext", MacAddress::FromU48(0x02'ff'ff'ff'ff'01), Ipv4Address(8, 8, 8, 8)},
       {"int", MacAddress::FromU48(0x02'00'00'00'11'10), Ipv4Address(192, 168, 1, 10)}});
  const MacAddress client_mac = MacAddress::FromU48(0x02'00'00'00'c1'00);
  ServiceNode& mc =
      topo.BuildStar(mc_service, {{"client", client_mac, Ipv4Address(10, 0, 0, 50)}});
  SimHost& s0 = topo.host(0);
  SimHost& s1 = topo.host(1);
  SimHost& ext = topo.host(2);
  SimHost& internal = topo.host(3);
  SimHost& client = topo.host(4);

  for (SimHost* h : {&s0, &s1, &internal, &client}) {
    h->SetApp([](SimHost&, Packet) {});
  }
  // The external host echoes every translated datagram back at its source —
  // each NAT ping becomes a full out-and-back flight.
  ext.SetApp([&ext, &nat_config](SimHost& h, Packet frame) {
    Ipv4View ip(frame);
    if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
      return;
    }
    UdpView udp(frame, ip.payload_offset());
    Packet reply = MakeUdpPacket({nat_config.external_mac, h.mac(), h.ip(), ip.source(),
                                  udp.destination_port(), udp.source_port()},
                                 std::vector<u8>{'r'});
    ext.scheduler().After(3 * kPicosPerMicro, [&ext, reply] { ext.Send(reply); });
  });

  // Switch traffic: both stations announce themselves, then exchange unicasts.
  s0.scheduler().At(10 * kPicosPerMicro, [&s0] {
    s0.Send(MakeEthernetFrame(MacAddress::Broadcast(), s0.mac(), EtherType::kIpv4,
                              std::vector<u8>{0}));
  });
  s1.scheduler().At(20 * kPicosPerMicro, [&s1] {
    s1.Send(MakeEthernetFrame(MacAddress::Broadcast(), s1.mac(), EtherType::kIpv4,
                              std::vector<u8>{1}));
  });
  for (usize i = 0; i < 6; ++i) {
    const Picoseconds at = (100 + static_cast<Picoseconds>(i) * 40) * kPicosPerMicro;
    s0.scheduler().At(at, [&s0, &s1, i] {
      s0.Send(MakeUdpPacket({s1.mac(), s0.mac(), s0.ip(), s1.ip(),
                             static_cast<u16>(5000 + i), 6000},
                            std::vector<u8>{static_cast<u8>(i)}));
    });
    s1.scheduler().At(at + 15 * kPicosPerMicro, [&s0, &s1, i] {
      s1.Send(MakeUdpPacket({s0.mac(), s1.mac(), s1.ip(), s0.ip(),
                             static_cast<u16>(7000 + i), 8000},
                            std::vector<u8>{static_cast<u8>(i)}));
    });
  }

  // NAT traffic: staggered pings out of the internal network.
  for (usize i = 0; i < 5; ++i) {
    const Picoseconds at = (30 + static_cast<Picoseconds>(i) * 60) * kPicosPerMicro;
    internal.scheduler().At(at, [&internal, &ext, &nat_config, i] {
      internal.Send(MakeUdpPacket({nat_config.internal_mac, internal.mac(), internal.ip(),
                                   ext.ip(), static_cast<u16>(4000 + i), 53},
                                  std::vector<u8>{static_cast<u8>('a' + i)}));
    });
  }

  // Memcached traffic: seeded memaslap prewarm SETs then a 90/10 workload.
  MemaslapConfig workload;
  workload.server_mac = mc_config.mac;
  workload.server_ip = mc_config.ip;
  workload.client_mac = client_mac;
  workload.client_ip = client.ip();
  workload.key_space = 16;
  workload.seed = 424242;
  MemaslapLoadgen loadgen(workload);
  for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
    const Picoseconds at = (5 + static_cast<Picoseconds>(k) * 2) * kPicosPerMicro;
    Packet frame = loadgen.PrewarmFrame(k);
    client.scheduler().At(at, [&client, frame] { client.Send(frame); });
  }
  for (usize k = 0; k < 12; ++k) {
    const Picoseconds at = (150 + static_cast<Picoseconds>(k) * 20) * kPicosPerMicro;
    Packet frame = loadgen.WorkloadFrame(k);
    client.scheduler().At(at, [&client, frame] { client.Send(frame); });
  }

  // Telemetry. The sampled registry holds only memcached-node state (service
  // counters + its kernel), so in-run sampling on that node's scheduler never
  // reads across a shard boundary; the full registry is read post-run only.
  MetricsRegistry mc_metrics;
  mc_service.RegisterMetrics(mc_metrics);
  mc.target().sim().RegisterMetrics(mc_metrics, "kernel.memcached");
  MetricsSampler sampler(mc_metrics, 100 * kPicosPerMicro);
  sampler.SchedulePeriodic(mc.scheduler(), 400 * kPicosPerMicro);

  // Sampled kernel profiling on the memcached node: wall-clock accounting
  // only, so the deterministic trace bytes are untouched by it.
  mc.target().sim().SetProfilingMode(ProfilingMode::kSampled);

  result.events = topo.Run({.threads = threads});
  result.profile = mc.target().sim().ProfileReport();

  MetricsRegistry metrics;
  switch_service.RegisterMetrics(metrics);
  nat_service.RegisterMetrics(metrics);
  mc_service.RegisterMetrics(metrics);
  sw.target().sim().RegisterMetrics(metrics, "kernel.switch");
  nat.target().sim().RegisterMetrics(metrics, "kernel.nat");
  mc.target().sim().RegisterMetrics(metrics, "kernel.memcached");
  for (usize i = 0; i < topo.host_count(); ++i) {
    topo.uplink(i)->RegisterMetrics(metrics, "link" + std::to_string(i));
  }

  result.trace_json = result.session->ExportChromeJson();
  result.prom_text = metrics.PrometheusText();
  result.sampler_csv = sampler.Csv();
  result.sampler_rows = sampler.rows().size();
  result.trace_events_dropped = result.session->dropped();
  result.merged = result.session->MergedEvents();
  obs::TraceSession::Detach();
  return result;
}

// Table-4-style decomposition, read off the trace: mean duration of every
// complete span plus mean end-to-end flight time from the async pairs.
void PrintDecomposition(const std::vector<obs::MergedEvent>& events) {
  std::map<u64, Picoseconds> flight_begin;
  u64 flights = 0;
  Picoseconds flight_total = 0;
  for (const obs::MergedEvent& e : events) {
    if (e.name != "pkt.flight") {
      continue;
    }
    if (e.phase == obs::Phase::kAsyncBegin) {
      flight_begin.emplace(e.id, e.ts);
    } else if (e.phase == obs::Phase::kAsyncEnd) {
      // A broadcast ends its flight at several hosts; count the first.
      auto it = flight_begin.find(e.id);
      if (it != flight_begin.end()) {
        ++flights;
        flight_total += e.ts - it->second;
        flight_begin.erase(it);
      }
    }
  }
  std::printf("stage decomposition (mean over the run):\n");
  for (const obs::SpanStats& stats : obs::AggregateCompleteSpans(events)) {
    std::printf("  %-18s %6llu spans   %10.3f ns mean\n", stats.name.c_str(),
                static_cast<unsigned long long>(stats.count),
                static_cast<double>(stats.total) / static_cast<double>(stats.count) / 1000.0);
  }
  if (flights > 0) {
    std::printf("  %-18s %6llu flights %10.3f us mean end-to-end\n", "pkt.flight",
                static_cast<unsigned long long>(flights),
                static_cast<double>(flight_total) / static_cast<double>(flights) /
                    static_cast<double>(kPicosPerMicro));
  }
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return ok && std::fclose(f) == 0;
}

}  // namespace

int main() {
  std::printf("== emu-scope: flight recorder + telemetry over a mixed topology ==\n\n");
  char dir_template[] = "/tmp/emu_scope.XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::perror("emu_scope: mkdtemp /tmp/emu_scope.XXXXXX");
    return 1;
  }
  const std::string dir = dir_template;
#ifndef EMU_TRACE
  std::printf("(built with EMU_TRACE=OFF: trace hooks fold away; the exported trace\n"
              " is empty but telemetry and the Prometheus pipeline still work)\n\n");
#endif

  RunResult run = RunOnce(/*threads=*/1);
  std::printf("executed %llu events; %zu trace events captured (%llu dropped)\n\n",
              static_cast<unsigned long long>(run.events), run.merged.size(),
              static_cast<unsigned long long>(run.trace_events_dropped));
  PrintDecomposition(run.merged);

  std::string error;
  const bool json_valid = obs::ValidateChromeTraceJson(run.trace_json, &error);
  std::printf("\ntrace JSON schema check: %s%s%s\n", json_valid ? "ok" : "FAILED — ",
              json_valid ? "" : error.c_str(), "");
  const bool prom_valid = PrometheusLint(run.prom_text, &error);
  std::printf("prometheus exposition lint: %s%s%s\n", prom_valid ? "ok" : "FAILED — ",
              prom_valid ? "" : error.c_str(), "");

  // The observability determinism contract: a 4-thread run of the same
  // workload exports the same bytes.
  RunResult parallel = RunOnce(/*threads=*/4);
  const bool deterministic = parallel.trace_json == run.trace_json;
  std::printf("threads=4 trace byte-identical to threads=1: %s\n",
              deterministic ? "yes" : "NO");

  // Kernel phase profile: the table prints only when the report actually
  // carries wall data — a disabled or never-sampled profiler says so
  // explicitly instead of rendering an all-zero table.
  if (run.profile.populated()) {
    std::printf("\nkernel phase profile (memcached node, sampled 1/%llu):\n%s",
                static_cast<unsigned long long>(run.profile.sample_stride),
                obs::FormatSimProfileTable(run.profile).c_str());
  } else {
    std::printf("\nkernel phase profile: %s\n",
                run.profile.profiling_enabled
                    ? "enabled, but no edges were timed (run too short for the stride)"
                    : "profiling disabled (Simulator::SetProfilingMode to enable)");
  }

  const bool json_written = WriteText(dir + "/trace.json", run.trace_json);
  const bool prom_written = WriteText(dir + "/metrics.prom", run.prom_text);
  const bool profile_written =
      WriteText(dir + "/profile.json", obs::SimProfileJson(run.profile));
  std::printf("\nartifacts in %s\n", dir.c_str());
  std::printf("wrote trace.json (%s) — open in ui.perfetto.dev\n",
              json_written ? "ok" : "FAILED");
  std::printf("wrote metrics.prom (%s) — scrape-ready Prometheus text\n",
              prom_written ? "ok" : "FAILED");
  std::printf("wrote profile.json (%s) — kernel phase profile\n",
              profile_written ? "ok" : "FAILED");
  std::printf("in-run sampler captured %zu snapshots of the memcached node\n",
              run.sampler_rows);

  return json_valid && prom_valid && deterministic && json_written && prom_written &&
                 profile_written
             ? 0
             : 1;
}
