// The direction subsystem: CASP machine, command language, direction
// packets, and the Fig. 11 controller embedding — including the §5.5
// checksum-bug hunt re-enacted end to end.
#include <gtest/gtest.h>

#include "src/core/targets.h"
#include "src/debug/casp_machine.h"
#include "src/debug/command_compiler.h"
#include "src/debug/command_parser.h"
#include "src/debug/controller.h"
#include "src/debug/direction_packet.h"
#include "src/net/udp.h"
#include "src/services/dns_service.h"
#include "src/services/memcached_service.h"

namespace emu {
namespace {

// --- CaspMachine ---------------------------------------------------------------

TEST(CaspMachine, CountersDefaultZeroAndStore) {
  CaspMachine machine;
  EXPECT_EQ(machine.counter("x"), 0u);
  EXPECT_FALSE(machine.HasCounter("x"));
  machine.set_counter("x", 7);
  EXPECT_EQ(machine.counter("x"), 7u);
  EXPECT_TRUE(machine.HasCounter("x"));
}

TEST(CaspMachine, ProcedureArithmetic) {
  CaspMachine machine;
  const u16 out = machine.InternCounter("out");
  CaspProgram program = {
      {CaspOp::kPushConst, 20, 0},
      {CaspOp::kPushConst, 22, 0},
      {CaspOp::kAdd, 0, 0},
      {CaspOp::kStoreCounter, 0, out},
      {CaspOp::kHalt, 0, 0},
  };
  machine.InstallProcedure("p", "t", program);
  EXPECT_TRUE(machine.Activate("p"));
  EXPECT_EQ(machine.counter("out"), 42u);
}

TEST(CaspMachine, ReadsBoundVariables) {
  CaspMachine machine;
  u64 value = 5;
  machine.BindVariable({"v", [&] { return value; }, nullptr});
  const u16 out = machine.InternCounter("out");
  auto var = machine.VariableId("v");
  ASSERT_TRUE(var.ok());
  CaspProgram program = {
      {CaspOp::kPushVar, 0, *var},
      {CaspOp::kStoreCounter, 0, out},
  };
  machine.InstallProcedure("p", "t", program);
  machine.Activate("p");
  EXPECT_EQ(machine.counter("out"), 5u);
  value = 9;
  machine.Activate("p");
  EXPECT_EQ(machine.counter("out"), 9u);
}

TEST(CaspMachine, WritesVariablesWithSetter) {
  CaspMachine machine;
  u64 value = 0;
  machine.BindVariable({"v", [&] { return value; }, [&](u64 v) { value = v; }});
  auto var = machine.VariableId("v");
  CaspProgram program = {
      {CaspOp::kPushConst, 123, 0},
      {CaspOp::kStoreVar, 0, *var},
  };
  machine.InstallProcedure("p", "t", program);
  machine.Activate("p");
  EXPECT_EQ(value, 123u);
}

TEST(CaspMachine, BreakHaltsAndResume) {
  CaspMachine machine;
  CaspProgram program = {{CaspOp::kBreak, 0, 0}};
  machine.InstallProcedure("p", "t", program);
  EXPECT_FALSE(machine.Activate("p"));
  EXPECT_TRUE(machine.broken());
  machine.Resume();
  EXPECT_FALSE(machine.broken());
}

TEST(CaspMachine, TraceAppendImplementsFig7) {
  CaspMachine machine;
  const u16 array = machine.DeclareArray("buf", 2);
  CaspProgram program = {
      {CaspOp::kPushConst, 11, 0},
      {CaspOp::kTraceAppend, 0, array},
  };
  machine.InstallProcedure("p", "t", program);
  EXPECT_TRUE(machine.Activate("p"));   // logs 11
  EXPECT_TRUE(machine.Activate("p"));   // logs 11 again: buffer now full
  EXPECT_FALSE(machine.Activate("p"));  // Fig. 7: overflow -> break
  const TraceBuffer* buffer = machine.FindArray("buf");
  ASSERT_NE(buffer, nullptr);
  EXPECT_EQ(buffer->index, 2u);
  EXPECT_EQ(buffer->overflow, 1u);
  EXPECT_TRUE(buffer->Full());
}

TEST(CaspMachine, EmitCollectsOutput) {
  CaspMachine machine;
  const u16 label = machine.InternLabel("csum");
  CaspProgram program = {
      {CaspOp::kPushConst, 0xbeef, 0},
      {CaspOp::kEmit, 0, label},
  };
  machine.InstallProcedure("p", "t", program);
  machine.Activate("p");
  const auto output = machine.TakeOutput();
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output[0], "csum=48879");
  EXPECT_TRUE(machine.TakeOutput().empty());
}

TEST(CaspMachine, JumpsAndConditionals) {
  CaspMachine machine;
  const u16 out = machine.InternCounter("out");
  // if (0) out = 1; else out = 2;
  CaspProgram program = {
      {CaspOp::kPushConst, 0, 0},
      {CaspOp::kJumpIfZero, 5, 0},
      {CaspOp::kPushConst, 1, 0},
      {CaspOp::kStoreCounter, 0, out},
      {CaspOp::kJump, 7, 0},
      {CaspOp::kPushConst, 2, 0},
      {CaspOp::kStoreCounter, 0, out},
      {CaspOp::kHalt, 0, 0},
  };
  machine.InstallProcedure("p", "t", program);
  machine.Activate("p");
  EXPECT_EQ(machine.counter("out"), 2u);
}

TEST(CaspMachine, StepBudgetStopsRunawayPrograms) {
  CaspMachine machine;
  CaspProgram program = {{CaspOp::kJump, 0, 0}};  // infinite loop
  machine.InstallProcedure("p", "t", program);
  EXPECT_TRUE(machine.Activate("p"));  // terminates via the budget
}

TEST(CaspMachine, RemoveProcedureByTag) {
  CaspMachine machine;
  machine.InstallProcedure("p", "a", {{CaspOp::kBreak, 0, 0}});
  machine.InstallProcedure("p", "b", {{CaspOp::kHalt, 0, 0}});
  EXPECT_EQ(machine.ProcedureCount("p"), 2u);
  machine.RemoveProcedure("p", "a");
  EXPECT_EQ(machine.ProcedureCount("p"), 1u);
  EXPECT_TRUE(machine.Activate("p"));  // break is gone
}

TEST(CaspMachine, BacktraceTracksCallStack) {
  CaspMachine machine;
  machine.EnterFunction("main");
  machine.EnterFunction("handle_query");
  EXPECT_EQ(machine.Backtrace(), (std::vector<std::string>{"main", "handle_query"}));
  machine.LeaveFunction();
  EXPECT_EQ(machine.Backtrace(), (std::vector<std::string>{"main"}));
}

// --- Command parser --------------------------------------------------------------

TEST(CommandParser, ParsesAllTable2Forms) {
  EXPECT_EQ(ParseDirectionCommand("print csum")->kind, DirectionKind::kPrint);
  EXPECT_EQ(ParseDirectionCommand("break main_loop")->kind, DirectionKind::kBreak);
  EXPECT_EQ(ParseDirectionCommand("unbreak main_loop")->kind, DirectionKind::kUnbreak);
  EXPECT_EQ(ParseDirectionCommand("backtrace")->kind, DirectionKind::kBacktrace);
  EXPECT_EQ(ParseDirectionCommand("watch csum")->kind, DirectionKind::kWatch);
  EXPECT_EQ(ParseDirectionCommand("unwatch csum")->kind, DirectionKind::kUnwatch);
  EXPECT_EQ(ParseDirectionCommand("count reads csum")->kind, DirectionKind::kCountReads);
  EXPECT_EQ(ParseDirectionCommand("count writes csum")->kind, DirectionKind::kCountWrites);
  EXPECT_EQ(ParseDirectionCommand("count calls handle")->kind, DirectionKind::kCountCalls);
  EXPECT_EQ(ParseDirectionCommand("trace start csum")->kind, DirectionKind::kTraceStart);
  EXPECT_EQ(ParseDirectionCommand("trace stop csum")->kind, DirectionKind::kTraceStop);
  EXPECT_EQ(ParseDirectionCommand("trace clear csum")->kind, DirectionKind::kTraceClear);
  EXPECT_EQ(ParseDirectionCommand("trace print csum")->kind, DirectionKind::kTracePrint);
  EXPECT_EQ(ParseDirectionCommand("trace full csum")->kind, DirectionKind::kTraceFull);
}

TEST(CommandParser, ParsesConditions) {
  auto command = ParseDirectionCommand("break main_loop if gets > 100");
  ASSERT_TRUE(command.ok());
  ASSERT_TRUE(command->condition.has_value());
  EXPECT_EQ(command->condition->variable, "gets");
  EXPECT_EQ(command->condition->op, ConditionOp::kGt);
  EXPECT_EQ(command->condition->constant, 100u);
}

TEST(CommandParser, ParsesTraceLength) {
  auto command = ParseDirectionCommand("trace start csum 64");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command->length, 64u);
  auto with_cond = ParseDirectionCommand("trace start csum 8 if csum == 0");
  ASSERT_TRUE(with_cond.ok());
  EXPECT_EQ(with_cond->length, 8u);
  ASSERT_TRUE(with_cond->condition.has_value());
}

TEST(CommandParser, RejectsMalformed) {
  EXPECT_FALSE(ParseDirectionCommand("").ok());
  EXPECT_FALSE(ParseDirectionCommand("print").ok());
  EXPECT_FALSE(ParseDirectionCommand("count sideways x").ok());
  EXPECT_FALSE(ParseDirectionCommand("trace sideways x").ok());
  EXPECT_FALSE(ParseDirectionCommand("break L if x <>").ok());
  EXPECT_FALSE(ParseDirectionCommand("frobnicate x").ok());
  EXPECT_FALSE(ParseDirectionCommand("watch x if y ~= 3").ok());
}

TEST(DirectionCommand, RejectsOverflowingConstant) {
  // 2^64 + 1 used to wrap to 1 and arm "hits > 1".
  EXPECT_FALSE(ParseDirectionCommand("break main if hits > 18446744073709551617").ok());
  EXPECT_FALSE(ParseDirectionCommand("watch x if x == 99999999999999999999").ok());
  EXPECT_FALSE(ParseDirectionCommand("break main if hits > -1").ok());
  EXPECT_FALSE(ParseDirectionCommand("trace start csum 18446744073709551617").ok());
  const auto largest = ParseDirectionCommand("break main if hits > 18446744073709551615");
  ASSERT_TRUE(largest.ok());
  EXPECT_EQ(largest->condition->constant, ~u64{0});
}

TEST(CommandParser, FormatRoundTrips) {
  for (const char* text :
       {"print csum", "break main_loop if gets > 100", "trace start csum 64",
        "count writes csum", "backtrace"}) {
    auto command = ParseDirectionCommand(text);
    ASSERT_TRUE(command.ok()) << text;
    EXPECT_EQ(FormatDirectionCommand(*command), text);
  }
}

// --- Compiler + controller ---------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : controller_("main_loop") {
    value_ = 0;
    controller_.machine().BindVariable(
        {"v", [this] { return value_; }, [this](u64 v) { value_ = v; }});
  }

  DirectionController controller_;
  u64 value_;
};

TEST_F(ControllerTest, PrintReadsVariableNow) {
  value_ = 77;
  EXPECT_EQ(controller_.HandleCommandText("print v"), "v=77");
}

TEST_F(ControllerTest, PrintUnknownVariableErrors) {
  EXPECT_NE(controller_.HandleCommandText("print nope").find("error"), std::string::npos);
}

TEST_F(ControllerTest, BreakFiresAtExtensionPoint) {
  controller_.HandleCommandText("break main_loop");
  EXPECT_FALSE(controller_.Activate("main_loop"));
  EXPECT_TRUE(controller_.broken());
  controller_.Resume();
  controller_.HandleCommandText("unbreak main_loop");
  EXPECT_TRUE(controller_.Activate("main_loop"));
}

TEST_F(ControllerTest, ConditionalBreakOnlyWhenConditionHolds) {
  controller_.HandleCommandText("break main_loop if v > 10");
  value_ = 5;
  EXPECT_TRUE(controller_.Activate("main_loop"));
  value_ = 11;
  EXPECT_FALSE(controller_.Activate("main_loop"));
}

TEST_F(ControllerTest, WatchBreaksOnChange) {
  controller_.HandleCommandText("watch v");
  value_ = 1;
  EXPECT_TRUE(controller_.Activate("main_loop"));  // arming pass
  EXPECT_TRUE(controller_.Activate("main_loop"));  // unchanged
  value_ = 2;
  EXPECT_FALSE(controller_.Activate("main_loop"));  // changed -> break
  controller_.Resume();
  EXPECT_TRUE(controller_.Activate("main_loop"));  // stable again
  controller_.HandleCommandText("unwatch v");
  value_ = 3;
  EXPECT_TRUE(controller_.Activate("main_loop"));
}

TEST_F(ControllerTest, WatchWithConditionFiltersChanges) {
  controller_.HandleCommandText("watch v if v == 9");
  value_ = 1;
  controller_.Activate("main_loop");  // arm
  value_ = 5;
  EXPECT_TRUE(controller_.Activate("main_loop"));  // changed but != 9
  value_ = 9;
  EXPECT_FALSE(controller_.Activate("main_loop"));
}

TEST_F(ControllerTest, TraceRecordsValuesUntilFull) {
  controller_.HandleCommandText("trace start v 3");
  for (u64 i = 1; i <= 3; ++i) {
    value_ = i * 10;
    EXPECT_TRUE(controller_.Activate("main_loop"));
  }
  EXPECT_EQ(controller_.HandleCommandText("trace print v"), "v: 10 20 30");
  EXPECT_EQ(controller_.HandleCommandText("trace full v"), "full");
  // Next activation overflows per Fig. 7: break.
  value_ = 40;
  EXPECT_FALSE(controller_.Activate("main_loop"));
  controller_.Resume();
  controller_.HandleCommandText("trace clear v");
  EXPECT_EQ(controller_.HandleCommandText("trace full v"), "not full");
  controller_.HandleCommandText("trace stop v");
  value_ = 50;
  EXPECT_TRUE(controller_.Activate("main_loop"));
}

TEST_F(ControllerTest, CountWritesViaHooks) {
  controller_.HandleCommandText("count writes v");
  controller_.NoteWrite("v");
  controller_.NoteWrite("v");
  controller_.NoteWrite("other");  // not counted: no command for it
  EXPECT_EQ(controller_.machine().counter(WriteCounterName("v")), 2u);
  EXPECT_EQ(controller_.machine().counter(WriteCounterName("other")), 0u);
}

TEST_F(ControllerTest, CountCallsViaHooks) {
  controller_.HandleCommandText("count calls handler");
  controller_.NoteCall("handler");
  controller_.NoteCall("handler");
  controller_.NoteCall("handler");
  EXPECT_EQ(controller_.machine().counter(CallCounterName("handler")), 3u);
}

TEST_F(ControllerTest, BacktraceReportsStack) {
  controller_.machine().EnterFunction("main");
  controller_.machine().EnterFunction("parse");
  const std::string out = controller_.HandleCommandText("backtrace");
  EXPECT_NE(out.find("#0 parse"), std::string::npos);
  EXPECT_NE(out.find("#1 main"), std::string::npos);
}

TEST_F(ControllerTest, FeatureResourceDeltasAreSmall) {
  // Table 5: utilization for +R/+W/+I stays within a few percent of the
  // artefact; here the controller's own deltas are tens to hundreds of LUTs.
  const u64 base = controller_.Resources().luts;
  DirectionController with_read;
  with_read.EnableFeature(ControllerFeature::kRead);
  DirectionController with_write;
  with_write.EnableFeature(ControllerFeature::kWrite);
  DirectionController with_inc;
  with_inc.EnableFeature(ControllerFeature::kIncrement);
  EXPECT_GT(with_read.Resources().luts, 0u);
  EXPECT_LT(with_read.Resources().luts, base + 500);
  EXPECT_GT(with_write.Resources().luts, with_read.Resources().luts);
  EXPECT_LT(with_inc.Resources().luts, base + 500);
}

// --- Direction packets ---------------------------------------------------------------

const MacAddress kDirectorMac = MacAddress::FromU48(0x02'00'00'00'd0'01);
const MacAddress kDutMac = MacAddress::FromU48(0x02'00'00'00'ee'04);

TEST(DirectionPacket, RoundTrip) {
  Packet packet =
      MakeDirectionPacket(kDutMac, kDirectorMac, DirectionPacketKind::kCommand, 7, "print v");
  EXPECT_TRUE(IsDirectionPacket(packet));
  auto payload = ParseDirectionPacket(packet);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->kind, DirectionPacketKind::kCommand);
  EXPECT_EQ(payload->sequence, 7);
  EXPECT_EQ(payload->text, "print v");
}

TEST(DirectionPacket, NormalFramesAreNotDirection) {
  Packet udp = MakeUdpPacket({kDutMac, kDirectorMac, Ipv4Address(1, 1, 1, 1),
                              Ipv4Address(2, 2, 2, 2), 1, 2},
                             std::vector<u8>{1});
  EXPECT_FALSE(IsDirectionPacket(udp));
}

TEST(DirectionPacket, BadMagicRejected) {
  Packet packet =
      MakeDirectionPacket(kDutMac, kDirectorMac, DirectionPacketKind::kCommand, 1, "x");
  packet[kEthernetHeaderSize] ^= 0xff;
  EXPECT_FALSE(IsDirectionPacket(packet));
  EXPECT_FALSE(ParseDirectionPacket(packet).ok());
}

TEST(DirectionPacket, ReplySwapsAddressesAndKeepsSequence) {
  Packet request =
      MakeDirectionPacket(kDutMac, kDirectorMac, DirectionPacketKind::kCommand, 42, "print v");
  Packet reply = MakeDirectionReply(request, "v=1");
  EthernetView eth(reply);
  EXPECT_EQ(eth.destination(), kDirectorMac);
  EXPECT_EQ(eth.source(), kDutMac);
  auto payload = ParseDirectionPacket(reply);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->kind, DirectionPacketKind::kReply);
  EXPECT_EQ(payload->sequence, 42);
  EXPECT_EQ(payload->text, "v=1");
}

// --- End-to-end: the §5.5 checksum hunt -----------------------------------------------

const Ipv4Address kClientIp(10, 0, 0, 9);
const MacAddress kClientMac = MacAddress::FromU48(0x02'00'00'00'cc'05);

class DirectedMemcachedTest : public ::testing::Test {
 protected:
  DirectedMemcachedTest()
      : controller_("main_loop"), directed_(service_, controller_), target_(directed_) {
    service_.AttachController(&controller_);
  }

  Packet McFrame(const McRequest& request) {
    McRequest copy = request;
    copy.protocol = config_.protocol;
    return MakeUdpPacket(
        {config_.mac, kClientMac, kClientIp, config_.ip, 31000, kMemcachedPort},
        BuildMcRequest(copy));
  }

  std::string SendCommand(const std::string& text, u16 sequence = 1) {
    Packet packet = MakeDirectionPacket(config_.mac, kDirectorMac,
                                        DirectionPacketKind::kCommand, sequence, text);
    auto reply = target_.SendAndCollect(0, std::move(packet));
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) {
      return "";
    }
    auto payload = ParseDirectionPacket(*reply);
    EXPECT_TRUE(payload.ok());
    return payload.ok() ? payload->text : "";
  }

  MemcachedConfig config_;
  MemcachedService service_{config_};
  DirectionController controller_;
  DirectedService directed_;
  FpgaTarget target_;
};

TEST_F(DirectedMemcachedTest, NormalTrafficUnaffectedByController) {
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "k";
  set.value = "v";
  auto reply = target_.SendAndCollect(0, McFrame(set));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(service_.sets(), 1u);
  EXPECT_EQ(directed_.direction_packets(), 0u);
}

TEST_F(DirectedMemcachedTest, DirectionPacketsAnswered) {
  const std::string reply = SendCommand("print gets");
  EXPECT_EQ(reply, "gets=0");
  EXPECT_EQ(directed_.direction_packets(), 1u);
}

TEST_F(DirectedMemcachedTest, ChecksumHuntFindsInjectedBug) {
  service_.InjectChecksumBug(true);

  // Serve a long GET (carry-heavy checksum) with the bug present.
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "bug";
  set.value = std::string(64, 'x');
  ASSERT_TRUE(target_.SendAndCollect(0, McFrame(set)).ok());
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "bug";
  auto bad_reply = target_.SendAndCollect(0, McFrame(get));
  ASSERT_TRUE(bad_reply.ok());
  Ipv4View bad_ip(*bad_reply);
  UdpView bad_udp(*bad_reply, bad_ip.payload_offset());
  ASSERT_FALSE(bad_udp.ChecksumValid(bad_ip));  // the symptom

  // Direct the running program: report the checksum the hardware computed.
  const std::string reported = SendCommand("print checksum");
  ASSERT_EQ(reported.rfind("checksum=", 0), 0u);
  const u64 reported_value = std::stoull(reported.substr(9));
  EXPECT_EQ(reported_value, bad_udp.checksum());

  // The director compares against the expected software checksum, spots the
  // fold bug, and hot-fixes it by writing the bound variable.
  SendCommand("print inject_bug");
  Packet fix = MakeDirectionPacket(config_.mac, kDirectorMac,
                                   DirectionPacketKind::kCommand, 9, "print inject_bug");
  (void)fix;
  // Write through the bound variable via the controller's machine (the +W
  // feature): inject_bug = 0.
  controller_.machine();
  auto var = controller_.machine().VariableId("inject_bug");
  ASSERT_TRUE(var.ok());
  CaspProgram fix_program = {
      {CaspOp::kPushConst, 0, 0},
      {CaspOp::kStoreVar, 0, *var},
  };
  controller_.machine().InstallProcedure("main_loop", "fix", fix_program);

  auto fixed_reply = target_.SendAndCollect(0, McFrame(get));
  ASSERT_TRUE(fixed_reply.ok());
  Ipv4View ip(*fixed_reply);
  UdpView udp(*fixed_reply, ip.payload_offset());
  EXPECT_TRUE(udp.ChecksumValid(ip));  // bug gone
  EXPECT_FALSE(service_.checksum_bug_injected());
}

TEST_F(DirectedMemcachedTest, BreakpointStallsServiceUntilResume) {
  SendCommand("break main_loop");
  target_.TakeEgress();  // drop the direction reply
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "k";
  // The GET hits the breakpoint: no reply while broken.
  target_.Inject(0, McFrame(get));
  target_.Run(100'000);
  EXPECT_TRUE(target_.TakeEgress().empty());
  EXPECT_TRUE(controller_.broken());

  // The director resumes; the stalled request drains.
  controller_.Resume();
  ASSERT_TRUE(target_.RunUntilEgressCount(1, 500'000));
  target_.TakeEgress();
  // And unbreak makes the next request flow without stalling.
  SendCommand("unbreak main_loop", 2);
  target_.TakeEgress();
  auto reply = target_.SendAndCollect(0, McFrame(get));
  EXPECT_TRUE(reply.ok());
}

TEST_F(DirectedMemcachedTest, CountCallsOverDirectionPackets) {
  SendCommand("count calls handle_request");
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "nope";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(target_.SendAndCollect(0, McFrame(get)).ok());
  }
  EXPECT_EQ(controller_.machine().counter(CallCounterName("handle_request")), 3u);
}

TEST_F(DirectedMemcachedTest, TraceChecksumOverRequests) {
  SendCommand("trace start checksum 8");
  McRequest set;
  set.op = McOpcode::kSet;
  set.key = "a";
  set.value = "1";
  ASSERT_TRUE(target_.SendAndCollect(0, McFrame(set)).ok());
  McRequest get;
  get.op = McOpcode::kGet;
  get.key = "a";
  ASSERT_TRUE(target_.SendAndCollect(0, McFrame(get)).ok());
  const std::string trace = SendCommand("trace print checksum", 3);
  // Two service requests ran after the trace install; the buffer holds the
  // checksum values observed at each main-loop activation.
  EXPECT_EQ(trace.rfind("checksum:", 0), 0u);
  EXPECT_NE(trace, "checksum:");
}

// Directed DNS — Table 5's other artefact.
TEST(DirectedDns, PrintAndWatchResolvedCounter) {
  DnsServiceConfig config;
  DnsService service(config);
  DirectionController controller("main_loop");
  service.AttachController(&controller);
  ASSERT_TRUE(service.AddRecord("svc.lab", Ipv4Address(10, 1, 1, 1)).ok());
  DirectedService directed(service, controller);
  FpgaTarget target(directed);

  Packet query = MakeUdpPacket({config.mac, kClientMac, kClientIp, config.ip, 5555, kDnsPort},
                               BuildDnsQuery(7, "svc.lab"));
  ASSERT_TRUE(target.SendAndCollect(0, std::move(query)).ok());

  Packet direction = MakeDirectionPacket(config.mac, kDirectorMac,
                                         DirectionPacketKind::kCommand, 1, "print resolved");
  auto reply = target.SendAndCollect(0, std::move(direction));
  ASSERT_TRUE(reply.ok());
  auto payload = ParseDirectionPacket(*reply);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->text, "resolved=1");

  Packet id_query = MakeDirectionPacket(config.mac, kDirectorMac,
                                        DirectionPacketKind::kCommand, 2, "print last_id");
  reply = target.SendAndCollect(0, std::move(id_query));
  ASSERT_TRUE(reply.ok());
  payload = ParseDirectionPacket(*reply);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->text, "last_id=7");
}

}  // namespace
}  // namespace emu
