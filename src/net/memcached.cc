#include "src/net/memcached.h"

#include <algorithm>
#include <array>
#include <charconv>

#include "src/common/bit_util.h"
#include "src/common/text.h"

namespace emu {
namespace {

constexpr u8 kMagicRequest = 0x80;
constexpr u8 kMagicResponse = 0x81;

// The space-separated tokens of one command line: the protocol separates
// them with the space byte alone, so this is not the text grammars'
// whitespace tokenizer (src/common/text.h). No command or reply has more than
// kMaxTokens, so only that many are kept; all are counted, so a line with
// extra tokens fails its arity check.
struct Tokens {
  static constexpr usize kMaxTokens = 5;
  std::array<std::string_view, kMaxTokens> token{};
  usize count = 0;
};

Tokens SplitOnSpaces(std::string_view line) {
  Tokens tokens;
  usize pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    const usize start = pos;
    while (pos < line.size() && line[pos] != ' ') {
      ++pos;
    }
    if (pos > start) {
      if (tokens.count < Tokens::kMaxTokens) {
        tokens.token[tokens.count] = line.substr(start, pos - start);
      }
      ++tokens.count;
    }
  }
  return tokens;
}

// One ASCII message as a list of text pieces. Numbers are formatted into the
// object itself, so the pieces stay valid while it lives (it is neither copied
// nor moved) and the message's size is known before a byte is written.
class AsciiText {
 public:
  AsciiText() = default;
  AsciiText(const AsciiText&) = delete;
  AsciiText& operator=(const AsciiText&) = delete;

  void Add(std::string_view text) {
    pieces_[count_++] = text;
    size_ += text.size();
  }

  void AddNumber(u64 value) {
    char* digits = numbers_[numbers_used_++].data();
    const char* end = std::to_chars(digits, digits + kMaxDigits, value).ptr;
    Add(std::string_view(digits, static_cast<usize>(end - digits)));
  }

  usize size() const { return size_; }

  // `out` holds exactly size() bytes.
  void WriteTo(std::span<u8> out) const {
    auto pos = out.begin();
    for (usize i = 0; i < count_; ++i) {
      pos = std::ranges::copy(pieces_[i], pos).out;
    }
  }

  std::vector<u8> Bytes() const {
    std::vector<u8> out(size_);
    WriteTo(out);
    return out;
  }

 private:
  static constexpr usize kMaxDigits = 20;  // of a u64
  // "set <key> <flags> <exptime> <bytes>\r\n<data>\r\n" is the longest.
  std::array<std::string_view, 11> pieces_{};
  std::array<std::array<char, kMaxDigits>, 3> numbers_{};
  usize count_ = 0;
  usize numbers_used_ = 0;
  usize size_ = 0;
};

// Finds the first CRLF at or after `from`; npos-like usize(-1) when absent.
usize FindCrlf(std::span<const u8> data, usize from) {
  for (usize i = from; i + 1 < data.size(); ++i) {
    if (data[i] == '\r' && data[i + 1] == '\n') {
      return i;
    }
  }
  return static_cast<usize>(-1);
}

std::string_view LineView(std::span<const u8> data, usize start, usize end) {
  return std::string_view(reinterpret_cast<const char*>(data.data()) + start, end - start);
}

// True when `data` holds a `bytes`-long data block and its CRLF from
// `value_start` on. The byte count comes off the wire: it is compared with
// the room left, never added to an offset it could wrap.
bool HoldsDataBlock(std::span<const u8> data, usize value_start, u64 bytes) {
  const usize room = data.size() - value_start;
  return bytes <= room && room - bytes >= 2;
}

bool IsGetHit(const McResponseView& response) {
  return response.op == McOpcode::kGet && response.status == McStatus::kNoError;
}

usize BinaryResponseSize(const McResponseView& response) {
  return kMcBinaryHeaderSize + (IsGetHit(response) ? 4 + response.value.size() : 0);
}

// Writes every byte of `out` (BinaryResponseSize bytes), which may hold a
// request's bytes when a service answers in place.
void WriteBinaryResponse(const McResponseView& response, std::span<u8> out) {
  const bool get_hit = IsGetHit(response);
  const usize extras = get_hit ? 4 : 0;
  std::fill_n(out.begin(), kMcBinaryHeaderSize, u8{0});
  out[0] = kMagicResponse;
  out[1] = static_cast<u8>(response.op);
  out[4] = static_cast<u8>(extras);
  BitUtil::Set16(out, 6, static_cast<u16>(response.status));
  BitUtil::Set32(out, 8, static_cast<u32>(out.size() - kMcBinaryHeaderSize));
  BitUtil::Set32(out, 12, response.opaque);
  if (get_hit) {
    BitUtil::Set32(out, kMcBinaryHeaderSize, response.flags);
    std::ranges::copy(response.value, out.begin() + kMcBinaryHeaderSize + extras);
  }
}

void AsciiRequestText(const McRequest& request, AsciiText& text) {
  switch (request.op) {
    case McOpcode::kGet:
      text.Add("get ");
      text.Add(request.key);
      text.Add("\r\n");
      break;
    case McOpcode::kSet:
      text.Add("set ");
      text.Add(request.key);
      text.Add(" ");
      text.AddNumber(request.flags);
      text.Add(" ");
      text.AddNumber(request.expiry);
      text.Add(" ");
      text.AddNumber(request.value.size());
      text.Add("\r\n");
      text.Add(request.value);
      text.Add("\r\n");
      break;
    case McOpcode::kDelete:
      text.Add("delete ");
      text.Add(request.key);
      text.Add("\r\n");
      break;
  }
}

void AsciiResponseText(const McResponseView& response, AsciiText& text) {
  switch (response.op) {
    case McOpcode::kGet:
      if (response.status == McStatus::kNoError) {
        text.Add("VALUE ");
        text.Add(response.key);
        text.Add(" ");
        text.AddNumber(response.flags);
        text.Add(" ");
        text.AddNumber(response.value.size());
        text.Add("\r\n");
        text.Add(response.value);
        text.Add("\r\n");
      }
      text.Add("END\r\n");
      break;
    case McOpcode::kSet:
      text.Add(response.status == McStatus::kNoError ? "STORED\r\n" : "NOT_STORED\r\n");
      break;
    case McOpcode::kDelete:
      text.Add(response.status == McStatus::kNoError ? "DELETED\r\n" : "NOT_FOUND\r\n");
      break;
  }
}

}  // namespace

// --- Binary protocol -----------------------------------------------------------

std::vector<u8> BuildMcBinaryRequest(const McRequest& request) {
  const bool is_set = request.op == McOpcode::kSet;
  const usize extras = is_set ? 8 : 0;
  const usize body = extras + request.key.size() + (is_set ? request.value.size() : 0);

  std::vector<u8> out(kMcBinaryHeaderSize + body, 0);
  out[0] = kMagicRequest;
  out[1] = static_cast<u8>(request.op);
  BitUtil::Set16(out, 2, static_cast<u16>(request.key.size()));
  out[4] = static_cast<u8>(extras);
  // data type (5) and vbucket (6-7) stay zero
  BitUtil::Set32(out, 8, static_cast<u32>(body));
  BitUtil::Set32(out, 12, request.opaque);
  // cas (16-23) stays zero

  usize pos = kMcBinaryHeaderSize;
  if (is_set) {
    BitUtil::Set32(out, pos, request.flags);
    BitUtil::Set32(out, pos + 4, request.expiry);
    pos += 8;
  }
  for (char c : request.key) {
    out[pos++] = static_cast<u8>(c);
  }
  if (is_set) {
    for (char c : request.value) {
      out[pos++] = static_cast<u8>(c);
    }
  }
  return out;
}

Expected<McRequest> ParseMcBinaryRequest(std::span<const u8> data) {
  if (data.size() < kMcBinaryHeaderSize) {
    return MalformedPacket("binary request shorter than header");
  }
  if (data[0] != kMagicRequest) {
    return MalformedPacket("bad request magic");
  }
  McRequest request;
  request.protocol = McProtocol::kBinary;
  const u8 opcode = data[1];
  if (opcode != static_cast<u8>(McOpcode::kGet) && opcode != static_cast<u8>(McOpcode::kSet) &&
      opcode != static_cast<u8>(McOpcode::kDelete)) {
    return UnsupportedProtocol("unsupported opcode");
  }
  request.op = static_cast<McOpcode>(opcode);
  const u16 key_len = BitUtil::Get16(data, 2);
  const u8 extras_len = data[4];
  const u32 body_len = BitUtil::Get32(data, 8);
  request.opaque = BitUtil::Get32(data, 12);
  if (data.size() < kMcBinaryHeaderSize + body_len ||
      body_len < static_cast<u32>(key_len) + extras_len) {
    return MalformedPacket("binary request body truncated");
  }
  usize pos = kMcBinaryHeaderSize;
  if (request.op == McOpcode::kSet) {
    if (extras_len != 8) {
      return MalformedPacket("SET requires 8 extras bytes");
    }
    request.flags = BitUtil::Get32(data, pos);
    request.expiry = BitUtil::Get32(data, pos + 4);
  }
  pos += extras_len;
  request.key.assign(reinterpret_cast<const char*>(&data[pos]), key_len);
  pos += key_len;
  const usize value_len = body_len - extras_len - key_len;
  if (value_len > 0) {
    request.value.assign(reinterpret_cast<const char*>(&data[pos]), value_len);
  }
  return request;
}

std::vector<u8> BuildMcBinaryResponse(const McResponse& response) {
  std::vector<u8> out(BinaryResponseSize(response));
  WriteBinaryResponse(response, out);
  return out;
}

Expected<McResponse> ParseMcBinaryResponse(std::span<const u8> data) {
  if (data.size() < kMcBinaryHeaderSize) {
    return MalformedPacket("binary response shorter than header");
  }
  if (data[0] != kMagicResponse) {
    return MalformedPacket("bad response magic");
  }
  McResponse response;
  response.protocol = McProtocol::kBinary;
  response.op = static_cast<McOpcode>(data[1]);
  const u8 extras_len = data[4];
  response.status = static_cast<McStatus>(BitUtil::Get16(data, 6));
  const u32 body_len = BitUtil::Get32(data, 8);
  response.opaque = BitUtil::Get32(data, 12);
  if (data.size() < kMcBinaryHeaderSize + body_len || body_len < extras_len) {
    return MalformedPacket("binary response body truncated");
  }
  usize pos = kMcBinaryHeaderSize;
  if (extras_len >= 4) {
    response.flags = BitUtil::Get32(data, pos);
  }
  pos += extras_len;
  const usize value_len = body_len - extras_len;
  if (value_len > 0) {
    response.value.assign(reinterpret_cast<const char*>(&data[pos]), value_len);
  }
  return response;
}

// --- ASCII protocol --------------------------------------------------------------

std::vector<u8> BuildMcAsciiRequest(const McRequest& request) {
  AsciiText text;
  AsciiRequestText(request, text);
  return text.Bytes();
}

Expected<McRequest> ParseMcAsciiRequest(std::span<const u8> data) {
  const usize eol = FindCrlf(data, 0);
  if (eol == static_cast<usize>(-1)) {
    return MalformedPacket("missing CRLF");
  }
  const Tokens tokens = SplitOnSpaces(LineView(data, 0, eol));
  if (tokens.count == 0) {
    return MalformedPacket("empty command");
  }
  McRequest request;
  request.protocol = McProtocol::kAscii;
  if (tokens.token[0] == "get") {
    if (tokens.count != 2) {
      return MalformedPacket("get expects one key");
    }
    request.op = McOpcode::kGet;
    request.key.assign(tokens.token[1]);
    return request;
  }
  if (tokens.token[0] == "delete") {
    if (tokens.count != 2) {
      return MalformedPacket("delete expects one key");
    }
    request.op = McOpcode::kDelete;
    request.key.assign(tokens.token[1]);
    return request;
  }
  if (tokens.token[0] == "set") {
    if (tokens.count != 5) {
      return MalformedPacket("set expects key flags exptime bytes");
    }
    request.op = McOpcode::kSet;
    request.key.assign(tokens.token[1]);
    auto flags = text::ParseU64(tokens.token[2], 0xffffffff);
    auto expiry = text::ParseU64(tokens.token[3], 0xffffffff);
    auto bytes = text::ParseU64(tokens.token[4]);
    if (!flags.ok() || !expiry.ok() || !bytes.ok()) {
      return MalformedPacket("bad numeric field in set");
    }
    request.flags = static_cast<u32>(*flags);
    request.expiry = static_cast<u32>(*expiry);
    const usize value_start = eol + 2;
    if (!HoldsDataBlock(data, value_start, *bytes)) {
      return MalformedPacket("set data block truncated");
    }
    request.value.assign(reinterpret_cast<const char*>(&data[value_start]), *bytes);
    return request;
  }
  return UnsupportedProtocol("unknown ASCII command");
}

std::vector<u8> BuildMcAsciiResponse(const McResponse& response) {
  AsciiText text;
  AsciiResponseText(response, text);
  return text.Bytes();
}

Expected<McResponse> ParseMcAsciiResponse(std::span<const u8> data) {
  const usize eol = FindCrlf(data, 0);
  if (eol == static_cast<usize>(-1)) {
    return MalformedPacket("missing CRLF");
  }
  const Tokens tokens = SplitOnSpaces(LineView(data, 0, eol));
  if (tokens.count == 0) {
    return MalformedPacket("empty response");
  }
  McResponse response;
  response.protocol = McProtocol::kAscii;
  if (tokens.token[0] == "END") {
    response.op = McOpcode::kGet;
    response.status = McStatus::kKeyNotFound;
    return response;
  }
  if (tokens.token[0] == "VALUE") {
    if (tokens.count != 4) {
      return MalformedPacket("VALUE expects key flags bytes");
    }
    response.op = McOpcode::kGet;
    response.key.assign(tokens.token[1]);
    auto flags = text::ParseU64(tokens.token[2], 0xffffffff);
    auto bytes = text::ParseU64(tokens.token[3]);
    if (!flags.ok() || !bytes.ok()) {
      return MalformedPacket("bad numeric field in VALUE");
    }
    response.flags = static_cast<u32>(*flags);
    const usize value_start = eol + 2;
    if (!HoldsDataBlock(data, value_start, *bytes)) {
      return MalformedPacket("VALUE data truncated");
    }
    response.value.assign(reinterpret_cast<const char*>(&data[value_start]), *bytes);
    return response;
  }
  if (tokens.token[0] == "STORED") {
    response.op = McOpcode::kSet;
    return response;
  }
  if (tokens.token[0] == "NOT_STORED") {
    response.op = McOpcode::kSet;
    response.status = McStatus::kNotStored;
    return response;
  }
  if (tokens.token[0] == "DELETED") {
    response.op = McOpcode::kDelete;
    return response;
  }
  if (tokens.token[0] == "NOT_FOUND") {
    response.op = McOpcode::kDelete;
    response.status = McStatus::kKeyNotFound;
    return response;
  }
  return UnsupportedProtocol("unknown ASCII response");
}

// --- Dispatch helpers --------------------------------------------------------------

std::vector<u8> BuildMcRequest(const McRequest& request) {
  return request.protocol == McProtocol::kBinary ? BuildMcBinaryRequest(request)
                                                 : BuildMcAsciiRequest(request);
}

Expected<McRequest> ParseMcRequest(std::span<const u8> data, McProtocol protocol) {
  return protocol == McProtocol::kBinary ? ParseMcBinaryRequest(data)
                                         : ParseMcAsciiRequest(data);
}

std::vector<u8> BuildMcResponse(const McResponse& response) {
  return response.protocol == McProtocol::kBinary ? BuildMcBinaryResponse(response)
                                                  : BuildMcAsciiResponse(response);
}

usize WriteMcResponse(const McResponseView& response, Packet& frame, usize offset) {
  if (response.protocol == McProtocol::kBinary) {
    const usize size = BinaryResponseSize(response);
    frame.Resize(offset + size);
    WriteBinaryResponse(response, frame.MutableView(offset, size));
    return size;
  }
  AsciiText text;
  AsciiResponseText(response, text);
  frame.Resize(offset + text.size());
  text.WriteTo(frame.MutableView(offset, text.size()));
  return text.size();
}

Expected<McResponse> ParseMcResponse(std::span<const u8> data, McProtocol protocol) {
  return protocol == McProtocol::kBinary ? ParseMcBinaryResponse(data)
                                         : ParseMcAsciiResponse(data);
}

}  // namespace emu
