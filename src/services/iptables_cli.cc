#include "src/services/iptables_cli.h"

#include <string>
#include <vector>

#include "src/common/text.h"

namespace emu {
namespace {

Expected<u16> ParsePort(std::string_view digits) {
  const Expected<u64> port = text::ParseU64(digits, 65535);
  if (!port.ok()) {
    return InvalidArgument("bad port");
  }
  return static_cast<u16>(*port);
}

Expected<PortRange> ParsePortRange(std::string_view text) {
  const usize colon = text.find(':');
  PortRange range;
  if (colon == std::string_view::npos) {
    auto port = ParsePort(text);
    if (!port.ok()) {
      return port.status();
    }
    range.lo = *port;
    range.hi = *port;
    return range;
  }
  auto lo = ParsePort(text.substr(0, colon));
  auto hi = ParsePort(text.substr(colon + 1));
  if (!lo.ok() || !hi.ok()) {
    return InvalidArgument("bad port range");
  }
  if (*lo > *hi) {
    return InvalidArgument("inverted port range");
  }
  range.lo = *lo;
  range.hi = *hi;
  return range;
}

// "10.0.0.0/24" or bare "10.0.0.1" (treated as /32).
Status ParseAddressSpec(std::string_view spec, Ipv4Address* base, u32* prefix) {
  const usize slash = spec.find('/');
  u32 prefix_len = 32;
  if (slash != std::string_view::npos) {
    const Expected<u64> parsed = text::ParseU64(spec.substr(slash + 1), 32);
    if (!parsed.ok()) {
      return InvalidArgument("bad prefix length");
    }
    prefix_len = static_cast<u32>(*parsed);
  }
  auto addr = Ipv4Address::Parse(spec.substr(0, slash));
  if (!addr.ok()) {
    return addr.status();
  }
  *base = *addr;
  *prefix = prefix_len;
  return Status::Ok();
}

Expected<FilterRule::Action> ParseAction(std::string_view text) {
  if (text == "ACCEPT") {
    return FilterRule::Action::kAccept;
  }
  if (text == "DROP" || text == "REJECT") {
    return FilterRule::Action::kDrop;
  }
  return InvalidArgument("unknown target (expected ACCEPT or DROP)");
}

Expected<FilterRule> ParseRule(const std::vector<std::string>& tokens) {
  FilterRule rule;
  bool have_action = false;
  usize i = 0;
  // Leading "iptables" is tolerated.
  if (i < tokens.size() && tokens[i] == "iptables") {
    ++i;
  }
  for (; i < tokens.size(); ++i) {
    const std::string_view flag = tokens[i];
    const auto NextValue = [&]() -> Expected<std::string_view> {
      if (i + 1 >= tokens.size()) {
        return InvalidArgument(std::string("missing value after ") + std::string(flag));
      }
      return std::string_view(tokens[++i]);
    };
    if (flag == "-A" || flag == "-I") {
      auto chain = NextValue();
      if (!chain.ok()) {
        return chain.status();
      }
      continue;  // chains are not modelled; rules apply to the forward path
    }
    if (flag == "-p") {
      auto proto = NextValue();
      if (!proto.ok()) {
        return proto.status();
      }
      if (*proto == "icmp") {
        rule.protocol = IpProtocol::kIcmp;
      } else if (*proto == "tcp") {
        rule.protocol = IpProtocol::kTcp;
      } else if (*proto == "udp") {
        rule.protocol = IpProtocol::kUdp;
      } else {
        return UnsupportedProtocol("only icmp/tcp/udp are filterable");
      }
      continue;
    }
    if (flag == "-s" || flag == "-d") {
      auto spec = NextValue();
      if (!spec.ok()) {
        return spec.status();
      }
      Ipv4Address base;
      u32 prefix = 0;
      const Status status = ParseAddressSpec(*spec, &base, &prefix);
      if (!status.ok()) {
        return status;
      }
      if (flag == "-s") {
        rule.src_base = base;
        rule.src_prefix = prefix;
      } else {
        rule.dst_base = base;
        rule.dst_prefix = prefix;
      }
      continue;
    }
    if (flag == "--sport" || flag == "--dport") {
      auto spec = NextValue();
      if (!spec.ok()) {
        return spec.status();
      }
      auto range = ParsePortRange(*spec);
      if (!range.ok()) {
        return range.status();
      }
      if (flag == "--sport") {
        rule.src_ports = *range;
      } else {
        rule.dst_ports = *range;
      }
      continue;
    }
    if (flag == "-j") {
      auto target = NextValue();
      if (!target.ok()) {
        return target.status();
      }
      auto action = ParseAction(*target);
      if (!action.ok()) {
        return action.status();
      }
      rule.action = *action;
      have_action = true;
      continue;
    }
    return InvalidArgument("unknown flag: " + std::string(flag));
  }
  if (!have_action) {
    return InvalidArgument("rule needs -j ACCEPT|DROP");
  }
  if ((!rule.src_ports.IsAny() || !rule.dst_ports.IsAny()) &&
      (!rule.protocol.has_value() || *rule.protocol == IpProtocol::kIcmp)) {
    return InvalidArgument("port matches require -p tcp or -p udp");
  }
  return rule;
}

}  // namespace

Expected<FilterRule> ParseIptablesRule(std::string_view command) {
  return ParseRule(text::Tokenize(command));
}

Expected<IptablesRuleset> ParseIptablesScript(std::string_view script) {
  IptablesRuleset ruleset;
  for (const text::Entry& entry : text::SplitEntries(script)) {
    const auto fail = [&entry](const Status& status) {
      return Status(status.code(), "iptables script line " + std::to_string(entry.line) + ": " +
                                       status.message());
    };
    const std::vector<std::string>& tokens = entry.tokens;
    if (tokens[0] == "-P" || (tokens.size() > 1 && tokens[1] == "-P")) {
      // Default policy: "-P FORWARD DROP".
      const usize base = tokens[0] == "-P" ? 0 : 1;
      if (tokens.size() < base + 3) {
        return fail(InvalidArgument("-P needs chain and target"));
      }
      auto action = ParseAction(tokens[base + 2]);
      if (!action.ok()) {
        return fail(action.status());
      }
      ruleset.default_action = *action;
    } else {
      auto rule = ParseRule(tokens);
      if (!rule.ok()) {
        return fail(rule.status());
      }
      ruleset.rules.push_back(*rule);
    }
  }
  return ruleset;
}

}  // namespace emu
