#include "src/debug/command_parser.h"

#include <vector>

#include "src/common/text.h"

namespace emu {
namespace {

Expected<ConditionOp> ParseOp(std::string_view text) {
  if (text == "==") {
    return ConditionOp::kEq;
  }
  if (text == "!=") {
    return ConditionOp::kNe;
  }
  if (text == "<") {
    return ConditionOp::kLt;
  }
  if (text == ">") {
    return ConditionOp::kGt;
  }
  if (text == "<=") {
    return ConditionOp::kLe;
  }
  if (text == ">=") {
    return ConditionOp::kGe;
  }
  return InvalidArgument("unknown comparison operator");
}

// Parses "if VAR OP NUM" from tokens[i..]; on success fills `out`.
Status ParseCondition(const std::vector<std::string>& tokens, usize i, Condition* out) {
  if (i + 4 != tokens.size() || tokens[i] != "if") {
    return InvalidArgument("expected: if VAR OP NUM");
  }
  auto op = ParseOp(tokens[i + 2]);
  if (!op.ok()) {
    return op.status();
  }
  auto constant = text::ParseU64(tokens[i + 3]);
  if (!constant.ok()) {
    return constant.status();
  }
  out->variable = tokens[i + 1];
  out->op = *op;
  out->constant = *constant;
  return Status::Ok();
}

}  // namespace

Expected<DirectionCommand> ParseDirectionCommand(std::string_view text) {
  const auto tokens = text::Tokenize(text);
  if (tokens.empty()) {
    return InvalidArgument("empty command");
  }
  DirectionCommand command;

  const auto parse_optional_condition = [&](usize from) -> Status {
    if (from >= tokens.size()) {
      return Status::Ok();
    }
    Condition condition;
    const Status status = ParseCondition(tokens, from, &condition);
    if (!status.ok()) {
      return status;
    }
    command.condition = condition;
    return Status::Ok();
  };

  if (tokens[0] == "print") {
    if (tokens.size() != 2) {
      return InvalidArgument("print expects a variable");
    }
    command.kind = DirectionKind::kPrint;
    command.target = tokens[1];
    return command;
  }
  if (tokens[0] == "break" || tokens[0] == "unbreak") {
    if (tokens.size() < 2) {
      return InvalidArgument("break expects a label");
    }
    command.kind = tokens[0] == "break" ? DirectionKind::kBreak : DirectionKind::kUnbreak;
    command.target = tokens[1];
    if (command.kind == DirectionKind::kUnbreak && tokens.size() != 2) {
      return InvalidArgument("unbreak takes only a label");
    }
    const Status status = parse_optional_condition(2);
    if (!status.ok()) {
      return status;
    }
    return command;
  }
  if (tokens[0] == "backtrace") {
    if (tokens.size() != 1) {
      return InvalidArgument("backtrace takes no arguments");
    }
    command.kind = DirectionKind::kBacktrace;
    return command;
  }
  if (tokens[0] == "watch" || tokens[0] == "unwatch") {
    if (tokens.size() < 2) {
      return InvalidArgument("watch expects a variable");
    }
    command.kind = tokens[0] == "watch" ? DirectionKind::kWatch : DirectionKind::kUnwatch;
    command.target = tokens[1];
    if (command.kind == DirectionKind::kUnwatch && tokens.size() != 2) {
      return InvalidArgument("unwatch takes only a variable");
    }
    const Status status = parse_optional_condition(2);
    if (!status.ok()) {
      return status;
    }
    return command;
  }
  if (tokens[0] == "count") {
    if (tokens.size() != 3) {
      return InvalidArgument("count expects: count reads|writes|calls TARGET");
    }
    if (tokens[1] == "reads") {
      command.kind = DirectionKind::kCountReads;
    } else if (tokens[1] == "writes") {
      command.kind = DirectionKind::kCountWrites;
    } else if (tokens[1] == "calls") {
      command.kind = DirectionKind::kCountCalls;
    } else {
      return InvalidArgument("count subcommand must be reads/writes/calls");
    }
    command.target = tokens[2];
    return command;
  }
  if (tokens[0] == "trace") {
    if (tokens.size() < 3) {
      return InvalidArgument("trace expects: trace SUBCMD VAR");
    }
    command.target = tokens[2];
    if (tokens[1] == "start") {
      command.kind = DirectionKind::kTraceStart;
      usize next = 3;
      if (next < tokens.size()) {
        auto length = text::ParseU64(tokens[next]);
        if (length.ok()) {
          command.length = static_cast<usize>(*length);
          ++next;
        }
      }
      const Status status = parse_optional_condition(next);
      if (!status.ok()) {
        return status;
      }
      return command;
    }
    if (tokens.size() != 3) {
      return InvalidArgument("trace subcommand takes only a variable");
    }
    if (tokens[1] == "stop") {
      command.kind = DirectionKind::kTraceStop;
    } else if (tokens[1] == "clear") {
      command.kind = DirectionKind::kTraceClear;
    } else if (tokens[1] == "print") {
      command.kind = DirectionKind::kTracePrint;
    } else if (tokens[1] == "full") {
      command.kind = DirectionKind::kTraceFull;
    } else {
      return InvalidArgument("trace subcommand must be start/stop/clear/print/full");
    }
    return command;
  }
  return InvalidArgument("unknown direction command: " + tokens[0]);
}

std::string FormatDirectionCommand(const DirectionCommand& command) {
  std::string out;
  switch (command.kind) {
    case DirectionKind::kPrint:
      out = "print";
      break;
    case DirectionKind::kBreak:
      out = "break";
      break;
    case DirectionKind::kUnbreak:
      out = "unbreak";
      break;
    case DirectionKind::kBacktrace:
      out = "backtrace";
      break;
    case DirectionKind::kWatch:
      out = "watch";
      break;
    case DirectionKind::kUnwatch:
      out = "unwatch";
      break;
    case DirectionKind::kCountReads:
      out = "count reads";
      break;
    case DirectionKind::kCountWrites:
      out = "count writes";
      break;
    case DirectionKind::kCountCalls:
      out = "count calls";
      break;
    case DirectionKind::kTraceStart:
      out = "trace start";
      break;
    case DirectionKind::kTraceStop:
      out = "trace stop";
      break;
    case DirectionKind::kTraceClear:
      out = "trace clear";
      break;
    case DirectionKind::kTracePrint:
      out = "trace print";
      break;
    case DirectionKind::kTraceFull:
      out = "trace full";
      break;
  }
  if (!command.target.empty()) {
    out += " " + command.target;
  }
  if (command.length != 0) {
    out += " " + std::to_string(command.length);
  }
  if (command.condition.has_value()) {
    out += " if " + command.condition->variable;
    switch (command.condition->op) {
      case ConditionOp::kEq:
        out += " ==";
        break;
      case ConditionOp::kNe:
        out += " !=";
        break;
      case ConditionOp::kLt:
        out += " <";
        break;
      case ConditionOp::kGt:
        out += " >";
        break;
      case ConditionOp::kLe:
        out += " <=";
        break;
      case ConditionOp::kGe:
        out += " >=";
        break;
    }
    out += " " + std::to_string(command.condition->constant);
  }
  return out;
}

}  // namespace emu
