// Memcached wire protocols — binary and ASCII, over UDP (§4.3, §5.4).
//
// The paper's Memcached service started with GET/SET/DELETE over the binary
// protocol with 6-byte keys and 8-byte values, then grew ASCII support and
// larger sizes. Both protocols are implemented here behind one
// request/response representation so the service logic is protocol-agnostic.
#ifndef SRC_NET_MEMCACHED_H_
#define SRC_NET_MEMCACHED_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/net/packet.h"

namespace emu {

inline constexpr u16 kMemcachedPort = 11211;
inline constexpr usize kMcBinaryHeaderSize = 24;

enum class McProtocol { kBinary, kAscii };

enum class McOpcode : u8 {
  kGet = 0x00,
  kSet = 0x01,
  kDelete = 0x04,
};

enum class McStatus : u16 {
  kNoError = 0x0000,
  kKeyNotFound = 0x0001,
  kKeyExists = 0x0002,
  kValueTooLarge = 0x0003,
  kInvalidArguments = 0x0004,
  kNotStored = 0x0005,
  kUnknownCommand = 0x0081,
  kOutOfMemory = 0x0082,
};

struct McRequest {
  McProtocol protocol = McProtocol::kBinary;
  McOpcode op = McOpcode::kGet;
  std::string key;
  std::string value;  // SET only
  u32 flags = 0;
  u32 expiry = 0;
  u32 opaque = 0;  // binary only
};

struct McResponse {
  McProtocol protocol = McProtocol::kBinary;
  McOpcode op = McOpcode::kGet;
  McStatus status = McStatus::kNoError;
  std::string key;    // echoed in ASCII VALUE lines
  std::string value;  // GET hits
  u32 flags = 0;
  u32 opaque = 0;
};

// --- Binary protocol ---------------------------------------------------------

std::vector<u8> BuildMcBinaryRequest(const McRequest& request);
Expected<McRequest> ParseMcBinaryRequest(std::span<const u8> data);

std::vector<u8> BuildMcBinaryResponse(const McResponse& response);
Expected<McResponse> ParseMcBinaryResponse(std::span<const u8> data);

// --- ASCII protocol ----------------------------------------------------------

std::vector<u8> BuildMcAsciiRequest(const McRequest& request);
Expected<McRequest> ParseMcAsciiRequest(std::span<const u8> data);

std::vector<u8> BuildMcAsciiResponse(const McResponse& response);
Expected<McResponse> ParseMcAsciiResponse(std::span<const u8> data);

// --- Protocol-dispatching helpers ---------------------------------------------

std::vector<u8> BuildMcRequest(const McRequest& request);
Expected<McRequest> ParseMcRequest(std::span<const u8> data, McProtocol protocol);
std::vector<u8> BuildMcResponse(const McResponse& response);
Expected<McResponse> ParseMcResponse(std::span<const u8> data, McProtocol protocol);

// A response that borrows its key and value, so a service can write a stored
// value straight into its reply. Any McResponse converts to one.
struct McResponseView {
  McResponseView() = default;
  McResponseView(const McResponse& response)  // NOLINT(runtime/explicit)
      : protocol(response.protocol),
        op(response.op),
        status(response.status),
        key(response.key),
        value(response.value),
        flags(response.flags),
        opaque(response.opaque) {}

  McProtocol protocol = McProtocol::kBinary;
  McOpcode op = McOpcode::kGet;
  McStatus status = McStatus::kNoError;
  std::string_view key;
  std::string_view value;
  u32 flags = 0;
  u32 opaque = 0;
};

// Writes `response` into `frame` from byte `offset` on, resizing the frame to
// end with it, and returns its wire size: a service writes its reply in place,
// over the request in the request's frame.
usize WriteMcResponse(const McResponseView& response, Packet& frame, usize offset);

}  // namespace emu

#endif  // SRC_NET_MEMCACHED_H_
