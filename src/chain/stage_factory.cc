#include "src/chain/stage_factory.h"

#include "src/common/text.h"
#include "src/services/l3l4_filter.h"

namespace emu {
namespace {

const std::string* FindAttr(const StageAttrs& attrs, const std::string& key) {
  for (const auto& [k, v] : attrs) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

// capacity and max_mappings size a stage's tables when it is instantiated:
// about 170 B per memcached entry per core and 95 B per NAT mapping. 2^16
// entries, 16 times the canonical 4,096-entry store, keep a 4-core memcached
// stage near 45 MB and its Instantiate near 30 ms.
constexpr u64 kMaxTableEntries = u64{1} << 16;
constexpr u64 kAnyU64 = ~u64{0};

// The attribute `key` as a number in [min, max]; `out` keeps its default
// when the attribute is absent.
Status ParseU64Attr(const StageAttrs& attrs, const std::string& key, u64 min, u64 max,
                    u64* out) {
  const std::string* value = FindAttr(attrs, key);
  if (value == nullptr) {
    return Status::Ok();
  }
  const Expected<u64> parsed = text::ParseU64(*value, max);
  if (!parsed.ok() || *parsed < min) {
    return InvalidArgument("stage attribute " + key + "=" + *value + ": want a number in [" +
                           std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  *out = *parsed;
  return Status::Ok();
}

Status CheckAttrs(const StageAttrs& attrs, std::initializer_list<const char*> known) {
  for (const auto& [key, value] : attrs) {
    bool ok = false;
    for (const char* k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return InvalidArgument("unknown stage attribute: " + key + "=" + value);
    }
  }
  return Status::Ok();
}

}  // namespace

const std::vector<std::string>& StageKinds() {
  static const std::vector<std::string> kinds = {
      "filter", "nat", "l1cache", "memcached", "icmp_echo", "tcp_ping", "dns"};
  return kinds;
}

bool KnownStageKind(const std::string& kind) {
  for (const std::string& k : StageKinds()) {
    if (k == kind) {
      return true;
    }
  }
  return false;
}

IcmpEchoConfig CanonicalIcmpEchoConfig() { return IcmpEchoConfig{}; }
TcpPingConfig CanonicalTcpPingConfig() { return TcpPingConfig{}; }
DnsServiceConfig CanonicalDnsConfig() { return DnsServiceConfig{}; }
NatConfig CanonicalNatConfig() { return NatConfig{}; }
MemcachedConfig CanonicalMemcachedConfig() { return MemcachedConfig{}; }

MemcachedConfig CanonicalL1CacheConfig() {
  MemcachedConfig config;
  config.l1_cache_mode = true;
  config.host_port = 2;
  return config;
}

Expected<std::unique_ptr<Service>> MakeStageService(const std::string& kind,
                                                    const StageAttrs& attrs) {
  if (kind == "filter") {
    if (Status s = CheckAttrs(attrs, {"default", "drop_dst_port"}); !s.ok()) {
      return s;
    }
    L3L4FilterConfig config;
    if (const std::string* def = FindAttr(attrs, "default")) {
      if (*def == "drop") {
        config.default_action = FilterRule::Action::kDrop;
      } else if (*def == "accept") {
        config.default_action = FilterRule::Action::kAccept;
      } else {
        return InvalidArgument("filter default=" + *def + ": want accept|drop");
      }
    }
    u64 drop_port = 0;
    if (Status s = ParseU64Attr(attrs, "drop_dst_port", 0, 65535, &drop_port); !s.ok()) {
      return s;
    }
    if (drop_port != 0) {
      FilterRule rule;
      rule.action = FilterRule::Action::kDrop;
      rule.protocol = IpProtocol::kUdp;
      rule.dst_ports = {static_cast<u16>(drop_port), static_cast<u16>(drop_port)};
      config.rules.push_back(rule);
    }
    return std::unique_ptr<Service>(std::make_unique<L3L4Filter>(config));
  }
  if (kind == "nat") {
    if (Status s = CheckAttrs(attrs, {"max_mappings", "evict_idle", "timeout"}); !s.ok()) {
      return s;
    }
    NatConfig config = CanonicalNatConfig();
    u64 max_mappings = config.max_mappings;
    u64 evict_idle = config.exhaustion_evict_idle_cycles;
    u64 timeout = config.mapping_timeout_cycles;
    if (Status s = ParseU64Attr(attrs, "max_mappings", 1, kMaxTableEntries, &max_mappings);
        !s.ok()) {
      return s;
    }
    if (Status s = ParseU64Attr(attrs, "evict_idle", 0, kAnyU64, &evict_idle); !s.ok()) return s;
    if (Status s = ParseU64Attr(attrs, "timeout", 0, kAnyU64, &timeout); !s.ok()) return s;
    config.max_mappings = max_mappings;
    config.exhaustion_evict_idle_cycles = evict_idle;
    config.mapping_timeout_cycles = timeout;
    return std::unique_ptr<Service>(std::make_unique<NatService>(config));
  }
  if (kind == "l1cache" || kind == "memcached") {
    const bool l1 = kind == "l1cache";
    if (l1) {
      if (Status s = CheckAttrs(attrs, {"capacity", "cores", "host_port"}); !s.ok()) {
        return s;
      }
    } else {
      if (Status s = CheckAttrs(attrs, {"capacity", "cores"}); !s.ok()) {
        return s;
      }
    }
    MemcachedConfig config = l1 ? CanonicalL1CacheConfig() : CanonicalMemcachedConfig();
    u64 capacity = config.capacity;
    u64 cores = config.cores;
    u64 host_port = config.host_port;
    if (Status s = ParseU64Attr(attrs, "capacity", 1, kMaxTableEntries, &capacity); !s.ok()) {
      return s;
    }
    if (Status s = ParseU64Attr(attrs, "cores", 1, kNetFpgaPortCount, &cores); !s.ok()) return s;
    if (Status s = ParseU64Attr(attrs, "host_port", 0, kNetFpgaPortCount - 1, &host_port);
        !s.ok()) {
      return s;
    }
    config.capacity = capacity;
    config.cores = cores;
    config.host_port = static_cast<u8>(host_port);
    return std::unique_ptr<Service>(std::make_unique<MemcachedService>(config));
  }
  if (kind == "icmp_echo") {
    if (Status s = CheckAttrs(attrs, {}); !s.ok()) {
      return s;
    }
    return std::unique_ptr<Service>(std::make_unique<IcmpEchoService>(CanonicalIcmpEchoConfig()));
  }
  if (kind == "tcp_ping") {
    if (Status s = CheckAttrs(attrs, {}); !s.ok()) {
      return s;
    }
    return std::unique_ptr<Service>(std::make_unique<TcpPingService>(CanonicalTcpPingConfig()));
  }
  if (kind == "dns") {
    if (Status s = CheckAttrs(attrs, {"records"}); !s.ok()) {
      return s;
    }
    u64 records = 4;
    if (Status s = ParseU64Attr(attrs, "records", 0, 200, &records); !s.ok()) {
      return s;
    }
    auto service = std::make_unique<DnsService>(CanonicalDnsConfig());
    for (usize i = 0; i < records; ++i) {
      service->AddRecord("svc" + std::to_string(i) + ".lab",
                         Ipv4Address(10, 1, 0, static_cast<u8>(1 + i)));
    }
    return std::unique_ptr<Service>(std::move(service));
  }
  std::string known;
  for (const std::string& k : StageKinds()) {
    known += (known.empty() ? "" : " ") + k;
  }
  return InvalidArgument("unknown stage kind '" + kind + "' (known: " + known + ")");
}

}  // namespace emu
