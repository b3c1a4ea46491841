#include <gtest/gtest.h>

#include "src/net/memcached.h"

namespace emu {
namespace {

// --- Binary protocol ------------------------------------------------------------

TEST(McBinary, GetRequestRoundTrip) {
  McRequest request;
  request.protocol = McProtocol::kBinary;
  request.op = McOpcode::kGet;
  request.key = "abc123";  // the paper's initial 6-byte keys
  request.opaque = 0xdeadbeef;
  const std::vector<u8> wire = BuildMcBinaryRequest(request);
  EXPECT_EQ(wire.size(), kMcBinaryHeaderSize + 6);
  auto parsed = ParseMcBinaryRequest(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kGet);
  EXPECT_EQ(parsed->key, "abc123");
  EXPECT_EQ(parsed->opaque, 0xdeadbeefu);
  EXPECT_TRUE(parsed->value.empty());
}

TEST(McBinary, SetRequestRoundTrip) {
  McRequest request;
  request.protocol = McProtocol::kBinary;
  request.op = McOpcode::kSet;
  request.key = "key001";
  request.value = "12345678";  // 8-byte value
  request.flags = 42;
  request.expiry = 3600;
  const std::vector<u8> wire = BuildMcBinaryRequest(request);
  auto parsed = ParseMcBinaryRequest(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kSet);
  EXPECT_EQ(parsed->key, "key001");
  EXPECT_EQ(parsed->value, "12345678");
  EXPECT_EQ(parsed->flags, 42u);
  EXPECT_EQ(parsed->expiry, 3600u);
}

TEST(McBinary, DeleteRequestRoundTrip) {
  McRequest request;
  request.op = McOpcode::kDelete;
  request.key = "gone";
  auto parsed = ParseMcBinaryRequest(BuildMcBinaryRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kDelete);
  EXPECT_EQ(parsed->key, "gone");
}

TEST(McBinary, GetHitResponseRoundTrip) {
  McResponse response;
  response.protocol = McProtocol::kBinary;
  response.op = McOpcode::kGet;
  response.status = McStatus::kNoError;
  response.value = "payload!";
  response.flags = 7;
  response.opaque = 99;
  auto parsed = ParseMcBinaryResponse(BuildMcBinaryResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, McStatus::kNoError);
  EXPECT_EQ(parsed->value, "payload!");
  EXPECT_EQ(parsed->flags, 7u);
  EXPECT_EQ(parsed->opaque, 99u);
}

TEST(McBinary, MissResponseCarriesStatus) {
  McResponse response;
  response.op = McOpcode::kGet;
  response.status = McStatus::kKeyNotFound;
  auto parsed = ParseMcBinaryResponse(BuildMcBinaryResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, McStatus::kKeyNotFound);
  EXPECT_TRUE(parsed->value.empty());
}

TEST(McBinary, RejectsBadMagic) {
  McRequest request;
  request.op = McOpcode::kGet;
  request.key = "k";
  std::vector<u8> wire = BuildMcBinaryRequest(request);
  wire[0] = 0x42;
  EXPECT_FALSE(ParseMcBinaryRequest(wire).ok());
}

TEST(McBinary, RejectsTruncatedBody) {
  McRequest request;
  request.op = McOpcode::kSet;
  request.key = "key";
  request.value = "value";
  std::vector<u8> wire = BuildMcBinaryRequest(request);
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(ParseMcBinaryRequest(wire).ok());
}

TEST(McBinary, RejectsUnsupportedOpcode) {
  McRequest request;
  request.op = McOpcode::kGet;
  request.key = "k";
  std::vector<u8> wire = BuildMcBinaryRequest(request);
  wire[1] = 0x1d;  // some opcode we do not speak
  EXPECT_FALSE(ParseMcBinaryRequest(wire).ok());
}

TEST(McBinary, ResponseParserRejectsRequestMagic) {
  McRequest request;
  request.op = McOpcode::kGet;
  request.key = "k";
  EXPECT_FALSE(ParseMcBinaryResponse(BuildMcBinaryRequest(request)).ok());
}

// --- ASCII protocol --------------------------------------------------------------

TEST(McAscii, GetRequestRoundTrip) {
  McRequest request;
  request.protocol = McProtocol::kAscii;
  request.op = McOpcode::kGet;
  request.key = "user:42";
  const std::vector<u8> wire = BuildMcAsciiRequest(request);
  EXPECT_EQ(std::string(wire.begin(), wire.end()), "get user:42\r\n");
  auto parsed = ParseMcAsciiRequest(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kGet);
  EXPECT_EQ(parsed->key, "user:42");
}

TEST(McAscii, SetRequestRoundTrip) {
  McRequest request;
  request.protocol = McProtocol::kAscii;
  request.op = McOpcode::kSet;
  request.key = "k1";
  request.value = "hello world";
  request.flags = 5;
  request.expiry = 100;
  auto parsed = ParseMcAsciiRequest(BuildMcAsciiRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kSet);
  EXPECT_EQ(parsed->key, "k1");
  EXPECT_EQ(parsed->value, "hello world");
  EXPECT_EQ(parsed->flags, 5u);
  EXPECT_EQ(parsed->expiry, 100u);
}

TEST(McAscii, SetValueMayContainSpaces) {
  McRequest request;
  request.protocol = McProtocol::kAscii;
  request.op = McOpcode::kSet;
  request.key = "k";
  request.value = "a b\r\nc";  // binary-ish payload, length-delimited
  auto parsed = ParseMcAsciiRequest(BuildMcAsciiRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value, "a b\r\nc");
}

TEST(McAscii, DeleteRequestRoundTrip) {
  McRequest request;
  request.protocol = McProtocol::kAscii;
  request.op = McOpcode::kDelete;
  request.key = "dead";
  auto parsed = ParseMcAsciiRequest(BuildMcAsciiRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kDelete);
  EXPECT_EQ(parsed->key, "dead");
}

TEST(McAscii, GetHitResponseRoundTrip) {
  McResponse response;
  response.protocol = McProtocol::kAscii;
  response.op = McOpcode::kGet;
  response.status = McStatus::kNoError;
  response.key = "user:42";
  response.value = "data";
  response.flags = 3;
  const std::vector<u8> wire = BuildMcAsciiResponse(response);
  const std::string text(wire.begin(), wire.end());
  EXPECT_EQ(text, "VALUE user:42 3 4\r\ndata\r\nEND\r\n");
  auto parsed = ParseMcAsciiResponse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, McStatus::kNoError);
  EXPECT_EQ(parsed->value, "data");
}

TEST(McAscii, GetMissIsEnd) {
  McResponse response;
  response.protocol = McProtocol::kAscii;
  response.op = McOpcode::kGet;
  response.status = McStatus::kKeyNotFound;
  const std::vector<u8> wire = BuildMcAsciiResponse(response);
  EXPECT_EQ(std::string(wire.begin(), wire.end()), "END\r\n");
  auto parsed = ParseMcAsciiResponse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, McStatus::kKeyNotFound);
}

TEST(McAscii, StoredAndDeletedResponses) {
  McResponse stored;
  stored.protocol = McProtocol::kAscii;
  stored.op = McOpcode::kSet;
  auto parsed = ParseMcAsciiResponse(BuildMcAsciiResponse(stored));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, McStatus::kNoError);

  McResponse missing;
  missing.protocol = McProtocol::kAscii;
  missing.op = McOpcode::kDelete;
  missing.status = McStatus::kKeyNotFound;
  parsed = ParseMcAsciiResponse(BuildMcAsciiResponse(missing));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, McOpcode::kDelete);
  EXPECT_EQ(parsed->status, McStatus::kKeyNotFound);
}

TEST(McAscii, RejectsUnknownCommand) {
  const std::string wire = "incr foo 1\r\n";
  EXPECT_FALSE(
      ParseMcAsciiRequest(std::span<const u8>(reinterpret_cast<const u8*>(wire.data()),
                                              wire.size()))
          .ok());
}

TEST(McAscii, RejectsMissingCrlf) {
  const std::string wire = "get key";
  EXPECT_FALSE(
      ParseMcAsciiRequest(std::span<const u8>(reinterpret_cast<const u8*>(wire.data()),
                                              wire.size()))
          .ok());
}

TEST(McAscii, RejectsTruncatedSetData) {
  const std::string wire = "set k 0 0 10\r\nshort\r\n";
  EXPECT_FALSE(
      ParseMcAsciiRequest(std::span<const u8>(reinterpret_cast<const u8*>(wire.data()),
                                              wire.size()))
          .ok());
}

// A byte count near 2^64 must not wrap the bounds check into an accepting one
// (the parse would then copy ~2^64 bytes).
TEST(McAscii, RejectsByteCountThatWrapsTheBounds) {
  for (const std::string wire :
       {"set k 0 0 18446744073709551615\r\nxyz", "set k 0 0 18446744073709551614\r\nxyz"}) {
    const auto parsed = ParseMcAsciiRequest(
        std::span<const u8>(reinterpret_cast<const u8*>(wire.data()), wire.size()));
    ASSERT_FALSE(parsed.ok()) << wire;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedPacket) << wire;
  }
  const std::string reply = "VALUE k 0 18446744073709551614\r\nxyz";
  const auto parsed = ParseMcAsciiResponse(
      std::span<const u8>(reinterpret_cast<const u8*>(reply.data()), reply.size()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedPacket);
}

// A number above its field's width is rejected, not read modulo 2^64 or cast
// to 32 bits: the first line used to parse as flags 1 with a one-byte value.
TEST(McAscii, RejectsNumbersThatOverflow) {
  const auto request = [](const std::string& wire) {
    return ParseMcAsciiRequest(
        std::span<const u8>(reinterpret_cast<const u8*>(wire.data()), wire.size()));
  };
  const auto response = [](const std::string& wire) {
    return ParseMcAsciiResponse(
        std::span<const u8>(reinterpret_cast<const u8*>(wire.data()), wire.size()));
  };
  for (const std::string wire : {"set k 4294967297 0 18446744073709551617\r\nv\r\n",
                                 "set k 4294967296 0 1\r\nv\r\n",
                                 "set k 0 4294967296 1\r\nv\r\n",
                                 "set k 0 0 18446744073709551617\r\nv\r\n",
                                 "set k 0 0 99999999999999999999999\r\nv\r\n"}) {
    const auto parsed = request(wire);
    ASSERT_FALSE(parsed.ok()) << wire;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedPacket) << wire;
  }
  for (const std::string wire : {"VALUE k 4294967296 1\r\nv\r\nEND\r\n",
                                 "VALUE k 0 18446744073709551617\r\nv\r\nEND\r\n"}) {
    const auto parsed = response(wire);
    ASSERT_FALSE(parsed.ok()) << wire;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedPacket) << wire;
  }
  // The largest values that fit still parse, with leading zeros too.
  const auto set = request("set k 4294967295 00004294967295 1\r\nv\r\n");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->flags, 4294967295u);
  EXPECT_EQ(set->expiry, 4294967295u);
  EXPECT_EQ(set->value, "v");
  const auto value = response("VALUE k 4294967295 1\r\nv\r\nEND\r\n");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->flags, 4294967295u);
}

// --- Dispatch helpers --------------------------------------------------------------

class McProtocolParam : public ::testing::TestWithParam<McProtocol> {};

TEST_P(McProtocolParam, DispatchRoundTripsAllOps) {
  for (McOpcode op : {McOpcode::kGet, McOpcode::kSet, McOpcode::kDelete}) {
    McRequest request;
    request.protocol = GetParam();
    request.op = op;
    request.key = "key42";
    if (op == McOpcode::kSet) {
      request.value = "value";
    }
    auto parsed = ParseMcRequest(BuildMcRequest(request), GetParam());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->op, op);
    EXPECT_EQ(parsed->key, "key42");
    EXPECT_EQ(parsed->protocol, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, McProtocolParam,
                         ::testing::Values(McProtocol::kBinary, McProtocol::kAscii));

}  // namespace
}  // namespace emu
