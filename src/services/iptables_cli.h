// iptables-style rule parser (§4.1).
//
// "We provide a tool that emulates the command-line parameter interface of
// IP tables. Instead of modifying a Linux server's filters, it generates
// code that slots into our learning switch." Supported grammar (a practical
// subset of iptables):
//
//   [-A CHAIN] [-p icmp|tcp|udp] [-s ADDR[/PREFIX]] [-d ADDR[/PREFIX]]
//   [--sport LO[:HI]] [--dport LO[:HI]] -j ACCEPT|DROP
//
// ParseIptablesRule handles one rule; ParseIptablesScript handles one rule
// per line or ';'-separated entry ('#' comments and blank lines allowed, as
// in every text grammar: src/common/text.h), names the line in its errors,
// and also accepts a "-P CHAIN ACCEPT|DROP" default-policy line.
#ifndef SRC_SERVICES_IPTABLES_CLI_H_
#define SRC_SERVICES_IPTABLES_CLI_H_

#include <string_view>

#include "src/common/status.h"
#include "src/services/l3l4_filter.h"

namespace emu {

Expected<FilterRule> ParseIptablesRule(std::string_view command);

struct IptablesRuleset {
  std::vector<FilterRule> rules;
  FilterRule::Action default_action = FilterRule::Action::kAccept;
};

Expected<IptablesRuleset> ParseIptablesScript(std::string_view script);

}  // namespace emu

#endif  // SRC_SERVICES_IPTABLES_CLI_H_
