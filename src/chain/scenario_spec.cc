#include "src/chain/scenario_spec.h"

#include <charconv>

#include "src/common/text.h"

namespace emu {
namespace {

// "0x" and a hex number below 2^48.
bool ParseMac(const std::string& text, MacAddress& out) {
  if (text.size() < 3 || text[0] != '0' || (text[1] != 'x' && text[1] != 'X')) {
    return false;
  }
  u64 value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + 2, end, value, 16);
  if (ec != std::errc{} || ptr != end || value > 0xffff'ffff'ffffULL) {
    return false;
  }
  out = MacAddress::FromU48(value);
  return true;
}

}  // namespace

const char* SpecTopologyName(SpecTopology shape) {
  switch (shape) {
    case SpecTopology::kHub: return "hub";
    case SpecTopology::kStar: return "star";
    case SpecTopology::kCluster: return "cluster";
  }
  return "?";
}

const char* StageTargetName(StageTarget target) {
  return target == StageTarget::kFpga ? "fpga" : "cpu";
}

usize ScenarioSpec::FindHost(const std::string& name) const {
  for (usize i = 0; i < hosts.size(); ++i) {
    if (hosts[i].name == name) {
      return i;
    }
  }
  return hosts.size();
}

usize ScenarioSpec::FindStage(const std::string& name) const {
  for (usize i = 0; i < stages.size(); ++i) {
    if (stages[i].name == name) {
      return i;
    }
  }
  return stages.size();
}

usize ScenarioSpec::Downstream(usize stage) const {
  if (stage < stages.size()) {
    for (const SpecEdge& edge : edges) {
      if (edge.from == stages[stage].name) {
        return FindStage(edge.to);
      }
    }
  }
  return stages.size();
}

usize ScenarioSpec::Upstream(usize stage) const {
  if (stage < stages.size()) {
    for (const SpecEdge& edge : edges) {
      if (edge.to == stages[stage].name) {
        return FindStage(edge.from);
      }
    }
  }
  return stages.size();
}

SpecHost AutoHost(usize index) {
  return SpecHost{"h" + std::to_string(index),
                  MacAddress::FromU48(0x02'00'00'00'a0'00ULL + index),
                  Ipv4Address(10, 0, 0, static_cast<u8>(1 + index)), 0};
}

Expected<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  ScenarioSpec spec;
  std::vector<std::pair<std::vector<std::string>, usize>> chain_lines;
  bool saw_topology = false;

  const auto fail = [](usize line, const std::string& what, std::string_view entry) {
    return InvalidArgument("scenario spec line " + std::to_string(line) + ": " + what +
                           ": " + std::string(entry));
  };

  for (const text::Entry& parsed : text::SplitEntries(text)) {
    const usize line_number = parsed.line;
    const std::string_view entry = parsed.text;
    const std::vector<std::string>& tokens = parsed.tokens;
    const std::string& kw = tokens[0];
    if (kw == "topology") {
      if (saw_topology) {
        return fail(line_number, "duplicate topology line", entry);
      }
      saw_topology = true;
      spec.topology_line = line_number;
      if (tokens.size() < 2) {
        return fail(line_number, "topology needs a shape (hub|star|cluster)", entry);
      }
      if (tokens[1] == "hub") {
        spec.topology = SpecTopology::kHub;
      } else if (tokens[1] == "star") {
        spec.topology = SpecTopology::kStar;
      } else if (tokens[1] == "cluster") {
        spec.topology = SpecTopology::kCluster;
      } else {
        return fail(line_number, "unknown topology shape '" + tokens[1] + "'", entry);
      }
      for (usize i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = text::SplitKeyValue(tokens[i]).value_or(text::KeyValue{});
        if (key == "hosts") {
          const Expected<u64> count = text::ParseU64(value, 64);
          if (!count.ok() || *count == 0) {
            return fail(line_number, "bad hosts count '" + value + "'", entry);
          }
          for (usize h = 0; h < *count; ++h) {
            SpecHost host = AutoHost(h);
            host.line = line_number;
            if (spec.FindHost(host.name) != spec.hosts.size()) {
              return fail(line_number, "duplicate host '" + host.name + "'", entry);
            }
            spec.hosts.push_back(std::move(host));
          }
        } else if (key == "link_rate") {
          const Expected<u64> rate = text::ParseRate(value);
          if (!rate.ok() || *rate == 0) {
            return fail(line_number, "bad link_rate '" + value + "'", entry);
          }
          spec.link_bits_per_second = *rate;
        } else if (key == "link_delay") {
          const Expected<Picoseconds> delay = text::ParseTimePs(value);
          if (!delay.ok() || *delay == 0) {
            return fail(line_number, "bad link_delay '" + value + "'", entry);
          }
          spec.link_delay = *delay;
        } else if (key == "impair") {
          spec.impair_prefix = value;
        } else {
          return fail(line_number, "unknown topology operand '" + tokens[i] + "'", entry);
        }
      }
    } else if (kw == "host") {
      if (tokens.size() < 2) {
        return fail(line_number, "host needs a name", entry);
      }
      SpecHost host;
      host.name = tokens[1];
      host.line = line_number;
      if (spec.FindHost(host.name) != spec.hosts.size()) {
        return fail(line_number, "duplicate host '" + host.name + "'", entry);
      }
      // Defaults follow the auto-host convention at this host's index.
      const SpecHost defaults = AutoHost(spec.hosts.size());
      host.mac = defaults.mac;
      host.ip = defaults.ip;
      for (usize i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = text::SplitKeyValue(tokens[i]).value_or(text::KeyValue{});
        if (key == "mac") {
          if (!ParseMac(value, host.mac)) {
            return fail(line_number, "bad mac '" + value + "'", entry);
          }
        } else if (key == "ip") {
          const Expected<Ipv4Address> ip = Ipv4Address::Parse(value);
          if (!ip.ok()) {
            return fail(line_number, "bad ip '" + value + "'", entry);
          }
          host.ip = *ip;
        } else {
          return fail(line_number, "unknown host operand '" + tokens[i] + "'", entry);
        }
      }
      spec.hosts.push_back(std::move(host));
    } else if (kw == "stage") {
      if (tokens.size() < 2) {
        return fail(line_number, "stage needs a name", entry);
      }
      SpecStage stage;
      stage.name = tokens[1];
      stage.line = line_number;
      if (spec.FindStage(stage.name) != spec.stages.size()) {
        return fail(line_number, "duplicate stage '" + stage.name + "'", entry);
      }
      for (usize i = 2; i < tokens.size(); ++i) {
        const auto [key, value] = text::SplitKeyValue(tokens[i]).value_or(text::KeyValue{});
        if (key == "kind") {
          stage.kind = value;
        } else if (key == "host") {
          stage.host = value;
        } else if (key == "target") {
          if (value == "cpu") {
            stage.target = StageTarget::kCpu;
          } else if (value == "fpga") {
            stage.target = StageTarget::kFpga;
          } else {
            return fail(line_number, "bad target '" + value + "' (cpu|fpga)", entry);
          }
        } else if (key == "queue") {
          const Expected<u64> depth = text::ParseU64(value, 4096);
          if (!depth.ok()) {
            return fail(line_number, "bad queue depth '" + value + "'", entry);
          }
          stage.queue = *depth;
        } else if (key == "delay") {
          const Expected<Picoseconds> delay = text::ParseTimePs(value);
          if (!delay.ok()) {
            return fail(line_number, "bad delay '" + value + "'", entry);
          }
          stage.delay = *delay;
        } else if (!key.empty()) {
          stage.attrs.emplace_back(key, value);  // factory-interpreted knob
        } else {
          return fail(line_number, "unknown stage operand '" + tokens[i] + "'", entry);
        }
      }
      if (stage.kind.empty()) {
        return fail(line_number, "stage needs kind=", entry);
      }
      spec.stages.push_back(std::move(stage));
    } else if (kw == "chain") {
      if (tokens.size() < 2) {
        return fail(line_number, "chain needs stages", entry);
      }
      // Elements alternate names and "->"; validated against declared
      // stages/hosts once the whole spec is read.
      std::vector<std::string> elements;
      for (usize i = 1; i < tokens.size(); ++i) {
        if (i % 2 == 0) {
          if (tokens[i] != "->") {
            return fail(line_number, "expected '->' between chain elements", entry);
          }
        } else {
          elements.push_back(tokens[i]);
        }
      }
      if (tokens.size() % 2 != 0) {
        return fail(line_number, "chain ends with a dangling '->'", entry);
      }
      if (elements.size() < 2) {
        return fail(line_number, "chain needs at least two elements", entry);
      }
      chain_lines.emplace_back(std::move(elements), line_number);
    } else {
      return fail(line_number, "unknown keyword '" + kw + "'", entry);
    }
  }

  if (!saw_topology) {
    return InvalidArgument("scenario spec: missing topology line");
  }

  // Resolve chain elements now that every host and stage is declared: the
  // first element may name a host (the traffic source); everything else must
  // be a stage.
  for (auto& [elements, chain_line] : chain_lines) {
    usize first_stage = 0;
    if (spec.FindStage(elements[0]) == spec.stages.size()) {
      if (spec.FindHost(elements[0]) == spec.hosts.size()) {
        return fail(chain_line, "unknown chain element '" + elements[0] + "'",
                    elements[0]);
      }
      if (!spec.source_host.empty() && spec.source_host != elements[0]) {
        return fail(chain_line, "conflicting chain sources", elements[0]);
      }
      spec.source_host = elements[0];
      first_stage = 1;
      if (elements.size() - first_stage < 1) {
        return fail(chain_line, "chain needs a stage after the source host",
                    elements[0]);
      }
    }
    for (usize i = first_stage; i + 1 < elements.size(); ++i) {
      spec.edges.push_back(SpecEdge{elements[i], elements[i + 1], chain_line});
    }
  }

  // Intra-spec reference checks with the declaring line in the diagnostic.
  for (const SpecStage& stage : spec.stages) {
    if (spec.topology == SpecTopology::kHub && stage.host.empty()) {
      return fail(stage.line, "stage '" + stage.name + "' needs host= on a hub topology",
                  stage.name);
    }
    if (!stage.host.empty() && spec.FindHost(stage.host) == spec.hosts.size()) {
      return fail(stage.line, "stage '" + stage.name + "' placed on unknown host '" +
                                  stage.host + "'",
                  stage.name);
    }
  }
  for (const SpecEdge& edge : spec.edges) {
    for (const std::string* name : {&edge.from, &edge.to}) {
      if (spec.FindStage(*name) == spec.stages.size()) {
        return fail(edge.line, "chain references unknown stage '" + *name + "'", *name);
      }
    }
  }
  return spec;
}

}  // namespace emu
