#include "src/services/memcached_service.h"

#include <cassert>

#include "src/common/fatal.h"
#include "src/core/metrics.h"
#include "src/core/protocol_wrappers.h"
#include "src/fault/fault_registry.h"
#include "src/ip/pearson_hash.h"
#include "src/net/udp.h"
#include "src/netfpga/axis.h"
#include "src/netfpga/dataplane.h"
#include "src/obs/trace_hooks.h"
#include "src/services/reply_util.h"

namespace emu {
namespace {

u64 KeyHash(const std::string& key) {
  return PearsonHash64(
      std::span<const u8>(reinterpret_cast<const u8*>(key.data()), key.size()));
}

}  // namespace

MemcachedService::MemcachedService(MemcachedConfig config) : config_(config) {
  // The dispatcher picks a core as src_port % cores.
  if (config_.cores < 1 || config_.cores > kNetFpgaPortCount) {
    Fatal("MemcachedService", "cores=%zu, want 1..%zu", config_.cores, kNetFpgaPortCount);
  }
}

MemcachedService::~MemcachedService() = default;

void MemcachedService::Instantiate(Simulator& sim, Dataplane dp) {
  assert(dp.rx != nullptr && dp.tx != nullptr);
  dp_ = dp;
  sim_ = &sim;
  checksum_unit_ = std::make_unique<ChecksumUnit>(sim, "mc_csum");
  if (config_.l1_cache_mode) {
    client_ports_ = std::make_unique<Cam>(sim, "mc_clients", 64, 48, 8);
  }
  if (config_.backend == McBackend::kDram) {
    dram_ = std::make_unique<DramModel>(sim, "mc_dram",
                                        config_.capacity * config_.cores * 2048);
  }
  for (usize core = 0; core < config_.cores; ++core) {
    CoreState state;
    state.index = std::make_unique<LruCacheBlock>(sim, "mc_lru" + std::to_string(core),
                                                  config_.capacity);
    state.slots.resize(config_.capacity);
    state.queue = std::make_unique<SyncFifo<Packet>>(sim, "mc_queue" + std::to_string(core),
                                                     32, config_.bus_bytes * 8);
    cores_.push_back(std::move(state));
  }
  // Request parser FSM + response builder per core, plus the dispatcher.
  control_resources_ = HlsControlResources(6, config_.bus_bytes * 8);
  for (usize core = 0; core < config_.cores; ++core) {
    control_resources_ += HlsControlResources(14, config_.bus_bytes * 8);
    if (config_.backend == McBackend::kOnChip) {
      // Value store in BRAM.
      control_resources_ +=
          BramResources(config_.capacity * (config_.max_key_bytes + config_.max_value_bytes) * 8);
    }
  }
  const usize dispatch = sim.AddProcess(Dispatcher(), "mc_dispatch");
  {
    elab::IoDecl decl(sim.catalog(), dispatch);
    decl.Pops(dp_.rx);
    for (const CoreState& core : cores_) {
      decl.Pushes(core.queue.get());
    }
    if (config_.l1_cache_mode) {
      decl.Reads(std::string("mc_clients"));
    }
  }
  for (usize core = 0; core < config_.cores; ++core) {
    const usize worker = sim.AddProcess(Worker(core), "mc_core" + std::to_string(core));
    elab::IoDecl decl(sim.catalog(), worker);
    decl.Pops(cores_[core].queue.get()).Pushes(dp_.tx);
    if (config_.l1_cache_mode) {
      decl.Reads(std::string("mc_clients")).Writes(std::string("mc_clients"));
    }
  }
}

ResourceUsage MemcachedService::Resources() const {
  ResourceUsage usage = control_resources_ + checksum_unit_->resources();
  for (const CoreState& core : cores_) {
    usage += core.index->resources();
  }
  if (dram_ != nullptr) {
    usage += dram_->resources();
  }
  return usage;
}

void MemcachedService::InjectChecksumBug(bool enabled) {
  checksum_unit_->InjectFoldBug(enabled);
}

bool MemcachedService::checksum_bug_injected() const {
  return checksum_unit_->fold_bug_injected();
}

void MemcachedService::AttachController(DirectionController* controller) {
  controller_ = controller;
  if (controller_ == nullptr) {
    return;
  }
  main_point_ = ExtensionPoint(controller_, controller_->main_point());
  CaspMachine& machine = controller_->machine();
  machine.BindVariable(
      {"checksum", [this] { return static_cast<u64>(last_checksum_); }, nullptr});
  machine.BindVariable({"gets", [this] { return gets_; }, nullptr});
  machine.BindVariable({"sets", [this] { return sets_; }, nullptr});
  machine.BindVariable({"mc_dropped", [this] { return dropped_; }, nullptr});
  machine.BindVariable({"inject_bug",
                        [this] { return checksum_bug_injected() ? u64{1} : u64{0}; },
                        [this](u64 v) { InjectChecksumBug(v != 0); }});
}

void MemcachedService::RegisterFaultPoints(FaultRegistry& registry) {
  if (checksum_unit_ != nullptr) {
    checksum_unit_->AttachFault(registry, "memcached.csum");
  }
  for (usize core = 0; core < cores_.size(); ++core) {
    SyncFifo<Packet>* queue = cores_[core].queue.get();
    registry.RegisterStallTarget("memcached.queue" + std::to_string(core),
                                 [queue](u64 cycles) {
                                   queue->InjectStall(static_cast<Cycle>(cycles));
                                 });
  }
}

Cycle MemcachedService::StoreAccessCycles(usize core, usize bytes) {
  const Cycle transfer = bytes / 8 + 1;  // 64-bit words per cycle
  if (config_.backend == McBackend::kOnChip) {
    return transfer + 1;
  }
  const usize addr = (core * config_.capacity) * 2048 % dram_->size_bytes();
  return transfer + dram_->AccessLatency(addr, sim_->now());
}

HwProcess MemcachedService::Dispatcher() {
  for (;;) {
    co_await WaitUntil([this] { return !dp_.rx->Empty(); });
    // Cheap L2/L3 peek at the head frame, read where it sits: SETs/DELETEs
    // replicate to all cores, everything else dispatches by input port.
    const Packet& head = dp_.rx->Front();
    const u8 src_port = head.src_port();

    // L1-cache mode: frames arriving on the host-facing port are the host
    // tier's replies to forwarded misses — fill the cache and route them to
    // the requesting client (5.4's multilevel-cache structure).
    if (config_.l1_cache_mode && src_port == config_.host_port) {
      if (!dp_.tx->CanPush()) {
        co_await Pause();
        continue;
      }
      NetFpgaData out;
      out.tdata = dp_.rx->Pop();
      const usize words = WordsForBytes(out.tdata.size(), config_.bus_bytes);
      UdpWrapper udp(out);
      if (udp.Reachable() && udp.source_port() == kMemcachedPort) {
        FillCacheFromHostReply(udp.Payload());
        EthernetWrapper eth(out);
        const CamLookupResult client = client_ports_->Lookup(eth.destination().ToU48());
        if (client.hit) {
          NetFpga::SetOutputPort(out, client.value);
          ++host_replies_forwarded_;
          dp_.tx->Push(std::move(out.tdata));
        } else {
          ++dropped_;  // no client binding: reply has nowhere to go
        }
      } else {
        ++dropped_;
      }
      co_await PauseFor(words);
      continue;
    }
    // Only a multi-core design replicates, so only it needs the request's op.
    bool is_set = false;
    if (config_.cores > 1) {
      // The wrapper only reads the head; it binds a mutable frame because it
      // can also write one.
      UdpWrapper udp(const_cast<Packet&>(head));
      if (udp.Reachable() && udp.destination_port() == kMemcachedPort) {
        auto request = ParseMcRequest(udp.Payload(), config_.protocol);
        is_set = request.ok() && request->op != McOpcode::kGet;
      }
    }

    if (is_set) {
      // Replicated writes backpressure until EVERY replica queue has room —
      // this is exactly why SET throughput cannot scale with cores (5.4).
      bool all_ready = true;
      for (CoreState& core : cores_) {
        all_ready = all_ready && core.queue->CanPush();
      }
      if (!all_ready) {
        co_await Pause();
        continue;
      }
      Packet frame = dp_.rx->Pop();
      const usize words = WordsForBytes(frame.size(), config_.bus_bytes);
      for (CoreState& core : cores_) {
        core.queue->Push(frame);
      }
      co_await PauseFor(words);
    } else {
      const usize core_id = src_port % config_.cores;
      if (!cores_[core_id].queue->CanPush()) {
        co_await Pause();
        continue;
      }
      Packet frame = dp_.rx->Pop();
      const usize words = WordsForBytes(frame.size(), config_.bus_bytes);
      cores_[core_id].queue->Push(std::move(frame));
      co_await PauseFor(words);
    }
  }
}

McResponseView MemcachedService::Execute(usize core_id, const McRequest& request) {
  CoreState& core = cores_[core_id];
  McResponseView response;
  response.protocol = config_.protocol;
  response.op = request.op;
  response.key = request.key;
  response.opaque = request.opaque;

  if (request.key.empty() || request.key.size() > config_.max_key_bytes ||
      request.value.size() > config_.max_value_bytes) {
    response.status = McStatus::kInvalidArguments;
    return response;
  }

  const u64 hash = KeyHash(request.key);
  switch (request.op) {
    case McOpcode::kGet: {
      const LruCacheBlock::Data hit = core.index->Lookup(hash);
      if (hit.matched && core.slots[hit.index].used &&
          core.slots[hit.index].key == request.key) {
        response.status = McStatus::kNoError;
        response.value = core.slots[hit.index].value;
        response.flags = core.slots[hit.index].flags;
      } else {
        response.status = McStatus::kKeyNotFound;
      }
      break;
    }
    case McOpcode::kSet: {
      core.slots[core.index->Cache(hash, 0)].Store(request.key, request.value, request.flags);
      response.status = McStatus::kNoError;
      break;
    }
    case McOpcode::kDelete: {
      const LruCacheBlock::Data hit = core.index->Lookup(hash);
      if (hit.matched && core.slots[hit.index].used &&
          core.slots[hit.index].key == request.key) {
        core.index->Erase(hash);
        core.slots[hit.index].used = false;
        response.status = McStatus::kNoError;
      } else {
        response.status = McStatus::kKeyNotFound;
      }
      break;
    }
  }
  return response;
}

HwProcess MemcachedService::Worker(usize core_id) {
  CoreState& core = cores_[core_id];
  for (;;) {
    co_await WaitUntil(
        [this, &core] { return !core.queue->Empty() && dp_.tx->PollCanPush(); });
    NetFpgaData dataplane;
    dataplane.tdata = core.queue->Pop();
    const usize words = WordsForBytes(dataplane.tdata.size(), config_.bus_bytes);
    co_await PauseFor(words);

    ArpWrapper arp(dataplane);
    if (core_id == 0 && arp.Reachable() && arp.OperIs(ArpOper::kRequest) &&
        arp.target_ip() == config_.ip) {
      Packet reply =
          MakeArpReply(config_.mac, config_.ip, arp.sender_mac(), arp.sender_ip());
      CopyDataplaneStamps(dataplane.tdata, reply);
      NetFpgaData out;
      out.tdata = std::move(reply);
      NetFpga::SendBackToSource(out);
      co_await PauseFor(2);
      dp_.tx->Push(std::move(out.tdata));
      co_await Pause();
      continue;
    }

    UdpWrapper udp(dataplane);
    Ipv4Wrapper ip(dataplane);
    if (!udp.Reachable() || ip.destination() != config_.ip ||
        udp.destination_port() != kMemcachedPort) {
      ++dropped_;
      co_await Pause();
      continue;
    }

    auto request = ParseMcRequest(udp.Payload(), config_.protocol);
    if (!request.ok()) {
      ++dropped_;
      co_await Pause();
      continue;
    }

    // Main-loop extension point (§5.5): run installed direction procedures;
    // a fired breakpoint stalls the service until the director resumes it.
    // The call scope keeps `backtrace` accurate while a request is in flight.
    DirectedCallScope call_scope(controller_, "handle_request");
    if (controller_ != nullptr) {
      if (!main_point_.Activate()) {
        while (controller_->broken()) {
          co_await Pause();
        }
      }
    }

    // Protocol decode: the ASCII FSM walks the command line a byte per
    // cycle; the binary header decodes in a couple of beats.
    const usize decode_cycles =
        config_.protocol == McProtocol::kAscii ? 12 + request->key.size() : 3;
    // Stage span: decode + key hash (the parse leg of Table 4's breakdown).
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      if (obs::FrameTraceId(dataplane.tdata) != 0) {
        obs::EmitComplete(tb, "memcached.parse", sim_->NowPs(),
                          static_cast<Picoseconds>(decode_cycles + 1 + request->key.size()) *
                              sim_->cycle_period_ps());
      }
    }
    co_await PauseFor(decode_cycles);
    // Key hashing: a byte per cycle through the Pearson core.
    co_await PauseFor(1 + request->key.size());

    // L1-cache mode: a GET miss is not answered — the original request is
    // forwarded out of the host-facing port and the host's reply (which
    // later fills the cache) goes back to the client.
    if (config_.l1_cache_mode && request->op == McOpcode::kGet) {
      const LruCacheBlock::Data probe = cores_[core_id].index->Lookup(KeyHash(request->key));
      const bool is_hit = probe.matched && cores_[core_id].slots[probe.index].used &&
                          cores_[core_id].slots[probe.index].key == request->key;
      if (!is_hit) {
        ++gets_;
        ++misses_forwarded_;
        EthernetWrapper eth(dataplane);
        const CamLookupResult existing = client_ports_->Lookup(eth.source().ToU48());
        if (!existing.hit) {
          client_ports_->Write(client_slot_, eth.source().ToU48(),
                               dataplane.tdata.src_port());
          client_slot_ = (client_slot_ + 1) % client_ports_->entries();
        }
        NetFpga::SetOutputPort(dataplane, config_.host_port);
        co_await PauseFor(2);  // miss decision + forward mux
        dp_.tx->Push(std::move(dataplane.tdata));
        co_await Pause();
        continue;
      }
    }

    // The replicated copy of a SET is answered only by the owning core.
    const bool respond =
        request->op == McOpcode::kGet ||
        config_.cores == 1 ||
        dataplane.tdata.src_port() % config_.cores == core_id;

    const McResponseView response = Execute(core_id, *request);
    const usize value_bytes = response.value.size();
    const bool hit = response.status == McStatus::kNoError;

    // Write the reply in the request's frame now: the GET value it copies
    // is the store entry as this request found it, and a host reply may
    // refill that entry during the access cycles below (L1-cache mode).
    Packet& frame = dataplane.tdata;
    const usize udp_offset = Ipv4View(frame).payload_offset();
    if (respond) {
      SwapEthernetAddresses(frame);
      const usize reply_bytes = WriteMcResponse(response, frame, udp_offset + kUdpHeaderSize);
      Ipv4View(frame).set_total_length(static_cast<u16>(frame.size() - kEthernetHeaderSize));
      SwapIpv4Addresses(frame);
      SwapUdpPorts(frame);
      UdpView(frame, udp_offset).set_length(static_cast<u16>(kUdpHeaderSize + reply_bytes));
    }

    switch (request->op) {
      case McOpcode::kGet:
        ++gets_;
        if (hit) {
          ++get_hits_;
        }
        co_await PauseFor(StoreAccessCycles(core_id, value_bytes));
        break;
      case McOpcode::kSet:
        if (respond) {
          ++sets_;
        }
        co_await PauseFor(StoreAccessCycles(core_id, request->value.size()));
        break;
      case McOpcode::kDelete:
        if (respond) {
          ++deletes_;
        }
        co_await PauseFor(2);
        break;
    }

    if (!respond) {
      // Non-owning replicas still pay the full write FSM tail — the reason
      // SET throughput cannot scale with core count (5.4).
      co_await PauseFor(config_.turnaround_cycles);
      continue;
    }

    Ipv4View ip_out(frame);
    UdpView udp_out(frame, udp_offset);
    // UDP checksum via the hardware unit (the §5.5 bug lives here when
    // injected; otherwise it matches the software path).
    udp_out.set_checksum(0);
    checksum_unit_->Reset();
    checksum_unit_->Add32(ip_out.source().value());
    checksum_unit_->Add32(ip_out.destination().value());
    checksum_unit_->Add16(static_cast<u16>(IpProtocol::kUdp));
    checksum_unit_->Add16(udp_out.length());
    checksum_unit_->AddBytes(frame.View(udp_offset, udp_out.length()));
    u16 checksum = checksum_unit_->Result();
    if (checksum == 0) {
      checksum = 0xffff;
    }
    udp_out.set_checksum(checksum);
    last_checksum_ = checksum;
    if (controller_ != nullptr) {
      controller_->NoteWrite("checksum");
    }
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      if (obs::FrameTraceId(frame) != 0) {
        obs::EmitComplete(tb, "memcached.reply", sim_->NowPs(),
                          static_cast<Picoseconds>(checksum_unit_->CyclesForBytes(
                              udp_out.length())) *
                              sim_->cycle_period_ps());
      }
    }
    co_await PauseFor(checksum_unit_->CyclesForBytes(udp_out.length()));

    if (frame.size() < kEthernetMinFrame) {
      frame.Resize(kEthernetMinFrame);
    }
    NetFpga::SendBackToSource(dataplane);
    const usize out_words = WordsForBytes(frame.size(), config_.bus_bytes);
    dp_.tx->Push(std::move(dataplane.tdata));
    co_await PauseFor(out_words > 1 ? out_words - 1 : 1);
    co_await PauseFor(config_.turnaround_cycles);  // FSM tail (throughput)
  }
}

void MemcachedService::FillCacheFromHostReply(std::span<const u8> payload) {
  auto response = ParseMcResponse(payload, config_.protocol);
  if (!response.ok() || response->op != McOpcode::kGet ||
      response->status != McStatus::kNoError) {
    return;
  }
  // The binary protocol's GET reply omits the key; only the ASCII VALUE line
  // carries it, so cache fill works for the ASCII tier (the Table 4 setup).
  if (response->key.empty() || response->value.size() > config_.max_value_bytes) {
    return;
  }
  const u64 hash = KeyHash(response->key);
  for (CoreState& core : cores_) {
    core.slots[core.index->Cache(hash, 0)].Store(response->key, response->value, response->flags);
  }
  ++cache_fills_;
}


void MemcachedService::RegisterMetrics(MetricsRegistry& registry) {
  registry.Register("memcached.gets", &gets_);
  registry.Register("memcached.get_hits", &get_hits_);
  registry.Register("memcached.sets", &sets_);
  registry.Register("memcached.deletes", &deletes_);
  registry.Register("memcached.dropped", &dropped_);
  registry.Register("memcached.misses_forwarded", &misses_forwarded_);
  registry.Register("memcached.host_replies_forwarded", &host_replies_forwarded_);
  registry.Register("memcached.cache_fills", &cache_fills_);
}

}  // namespace emu
