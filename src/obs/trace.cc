#include "src/obs/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "src/common/json.h"

namespace emu::obs {

#ifdef EMU_TRACE
thread_local constinit TraceBuffer* tls_trace_buffer = nullptr;
#endif

namespace {

TraceSession* g_current_session = nullptr;

// ts/dur in the trace_event schema are microseconds; we render picoseconds
// as integer-us "." 6-digit-ps so the text never goes through a double and
// two runs producing the same event stream produce the same bytes.
void AppendMicros(std::string& out, Picoseconds ps) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%06lld",
                static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  out += buf;
}

}  // namespace

TraceBuffer::TraceBuffer(usize shard, usize capacity)
    : shard_(shard), capacity_(std::max<usize>(1, capacity)) {
  ring_.reserve(std::min<usize>(capacity_, 4096));
}

u32 TraceBuffer::Intern(std::string_view name) {
  auto it = intern_.find(std::string(name));
  if (it != intern_.end()) {
    return it->second;
  }
  const u32 id = static_cast<u32>(names_.size());
  names_.emplace_back(name);
  intern_.emplace(names_.back(), id);
  return id;
}

void TraceBuffer::Push(Phase phase, Picoseconds ts, Picoseconds dur, u32 name, u64 id) {
  TraceEvent event;
  event.ts = ts;
  event.dur = dur;
  event.id = id;
  event.seq = seq_++;
  event.name = name;
  event.phase = phase;
  ++total_pushed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest (the ring keeps the most recent window, which
  // is what a long soak wants — the tail leading up to the interesting end).
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void EmitAsyncBegin(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 id) {
  buffer->Push(Phase::kAsyncBegin, ts, 0, buffer->Intern(name), id);
}

void EmitAsyncEnd(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 id) {
  buffer->Push(Phase::kAsyncEnd, ts, 0, buffer->Intern(name), id);
}

void EmitInstant(TraceBuffer* buffer, std::string_view name, Picoseconds ts) {
  buffer->Push(Phase::kInstant, ts, 0, buffer->Intern(name), 0);
}

void EmitComplete(TraceBuffer* buffer, std::string_view name, Picoseconds ts, Picoseconds dur) {
  buffer->Push(Phase::kComplete, ts, dur, buffer->Intern(name), 0);
}

void EmitCounter(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 value) {
  buffer->Push(Phase::kCounter, ts, 0, buffer->Intern(name), value);
}

u64 NextFlightId(TraceBuffer* buffer) { return buffer->NextFlightId(); }

TraceSession::TraceSession(Config config) : config_(config) { EnsureShards(1); }

TraceSession::~TraceSession() {
  if (g_current_session == this) {
    Detach();
  }
}

TraceSession* TraceSession::Current() { return g_current_session; }

void TraceSession::Install() {
  g_current_session = this;
  BindThreadToShard(this, 0);
}

void TraceSession::Detach() {
  g_current_session = nullptr;
  BindThreadToShard(nullptr, 0);
}

void TraceSession::EnsureShards(usize n) {
  while (shards_.size() < n) {
    shards_.push_back(std::make_unique<TraceBuffer>(shards_.size(), config_.shard_capacity));
  }
}

u64 TraceSession::dropped() const {
  u64 total = 0;
  for (const auto& shard : shards_) {
    total += shard->dropped();
  }
  return total;
}

void BindThreadToShard(TraceSession* session, usize shard) {
#ifdef EMU_TRACE
  tls_trace_buffer = session != nullptr ? session->shard(shard) : nullptr;
#else
  (void)session;
  (void)shard;
#endif
}

void BindThreadToBuffer(TraceBuffer* buffer) {
#ifdef EMU_TRACE
  tls_trace_buffer = buffer;
#else
  (void)buffer;
#endif
}

std::vector<MergedEvent> TraceSession::MergedEvents() const {
  std::vector<MergedEvent> merged;
  for (const auto& shard : shards_) {
    for (const TraceEvent& event : shard->Events()) {
      MergedEvent out;
      out.ts = event.ts;
      out.dur = event.dur;
      out.id = event.id;
      out.seq = event.seq;
      out.shard = shard->shard();
      out.name = shard->Name(event.name);
      out.phase = event.phase;
      merged.push_back(out);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const MergedEvent& a, const MergedEvent& b) {
    return std::tie(a.ts, a.shard, a.seq) < std::tie(b.ts, b.shard, b.seq);
  });
  return merged;
}

std::string TraceSession::ExportChromeJson() const {
  std::string out;
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };
  for (usize i = 0; i < shards_.size(); ++i) {
    comma();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":%llu,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"shard%llu\"}}",
                  static_cast<unsigned long long>(i), static_cast<unsigned long long>(i));
    out += buf;
  }
  for (const MergedEvent& event : MergedEvents()) {
    comma();
    char buf[48];
    switch (event.phase) {
      case Phase::kComplete:
        out += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
        out += std::to_string(event.shard);
        out += ",\"ts\":";
        AppendMicros(out, event.ts);
        out += ",\"dur\":";
        AppendMicros(out, event.dur);
        out += ",\"name\":";
        json::AppendString(out, event.name);
        out += '}';
        break;
      case Phase::kAsyncBegin:
      case Phase::kAsyncEnd:
        out += event.phase == Phase::kAsyncBegin ? "{\"ph\":\"b\"" : "{\"ph\":\"e\"";
        out += ",\"cat\":\"pkt\",\"id\":\"0x";
        std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(event.id));
        out += buf;
        out += "\",\"pid\":0,\"tid\":";
        out += std::to_string(event.shard);
        out += ",\"ts\":";
        AppendMicros(out, event.ts);
        out += ",\"name\":";
        json::AppendString(out, event.name);
        out += '}';
        break;
      case Phase::kInstant:
        out += "{\"ph\":\"i\",\"pid\":0,\"tid\":";
        out += std::to_string(event.shard);
        out += ",\"ts\":";
        AppendMicros(out, event.ts);
        out += ",\"s\":\"t\",\"name\":";
        json::AppendString(out, event.name);
        out += '}';
        break;
      case Phase::kCounter:
        out += "{\"ph\":\"C\",\"pid\":0,\"tid\":";
        out += std::to_string(event.shard);
        out += ",\"ts\":";
        AppendMicros(out, event.ts);
        out += ",\"name\":";
        json::AppendString(out, event.name);
        out += ",\"args\":{\"value\":";
        out += std::to_string(event.id);
        out += "}}";
        break;
    }
  }
  out += "\n]}\n";
  return out;
}

bool TraceSession::WriteChromeJson(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  const std::string json = ExportChromeJson();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(file);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser + structural checks for the exported trace.

namespace {

class JsonCursor {
 public:
  JsonCursor(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Peek(char& c) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    c = text_[pos_];
    return true;
  }

  bool Consume(char expected) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return Fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Fail("dangling escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            if (out != nullptr) out->push_back(esc);
            break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              return Fail("short \\u escape");
            }
            pos_ += 4;
            break;
          default:
            return Fail("bad escape");
        }
        continue;
      }
      if (out != nullptr) {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber() {
    SkipWs();
    const usize start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      return Fail("expected number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const usize frac = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) {
        return Fail("empty fraction");
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const usize exp = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) {
        return Fail("empty exponent");
      }
    }
    return true;
  }

  // Parses any value. When `event_keys` is non-null and the value is an
  // object, records which of ph/name/ts/dur it contained.
  struct EventShape {
    std::string ph;
    bool has_name = false;
    bool has_ts = false;
  };

  bool ParseValue(EventShape* shape) {
    char c = 0;
    if (!Peek(c)) {
      return Fail("unexpected end of input");
    }
    switch (c) {
      case '{':
        return ParseObject(shape);
      case '[':
        return ParseArray(nullptr);
      case '"':
        return ParseString(nullptr);
      case 't':
        return ConsumeWord("true");
      case 'f':
        return ConsumeWord("false");
      case 'n':
        return ConsumeWord("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject(EventShape* shape) {
    if (!Consume('{')) {
      return false;
    }
    char c = 0;
    if (Peek(c) && c == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      std::string key;
      if (!ParseString(&key) || !Consume(':')) {
        return false;
      }
      if (shape != nullptr && key == "ph") {
        std::string ph;
        if (!ParseString(&ph)) {
          return Fail("\"ph\" must be a string");
        }
        shape->ph = ph;
      } else if (shape != nullptr && key == "name") {
        if (!ParseString(nullptr)) {
          return Fail("\"name\" must be a string");
        }
        shape->has_name = true;
      } else if (shape != nullptr && (key == "ts" || key == "dur")) {
        if (!ParseNumber()) {
          return Fail("\"" + key + "\" must be a number");
        }
        if (key == "ts") {
          shape->has_ts = true;
        }
      } else {
        if (!ParseValue(nullptr)) {
          return false;
        }
      }
      if (!Peek(c)) {
        return Fail("unterminated object");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  // Parses an array; when `events` is true, each element must be an object
  // that passes the trace_event shape check.
  bool ParseArray(bool* events) {
    if (!Consume('[')) {
      return false;
    }
    char c = 0;
    if (Peek(c) && c == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (events != nullptr) {
        EventShape shape;
        if (!ParseObject(&shape)) {
          return false;
        }
        if (shape.ph.empty()) {
          return Fail("trace event missing \"ph\"");
        }
        if (shape.ph != "M") {
          if (!shape.has_name) {
            return Fail("trace event missing \"name\"");
          }
          if (!shape.has_ts) {
            return Fail("trace event missing \"ts\"");
          }
        }
      } else if (!ParseValue(nullptr)) {
        return false;
      }
      if (!Peek(c)) {
        return Fail("unterminated array");
      }
      if (c == ',') {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ConsumeWord(const char* word) {
    SkipWs();
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Fail(std::string("expected '") + word + "'");
      }
      ++pos_;
    }
    return true;
  }

 private:
  const std::string& text_;
  std::string* error_;
  usize pos_ = 0;
};

}  // namespace

bool ValidateChromeTraceJson(const std::string& text, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  JsonCursor cursor(text, error);
  if (!cursor.Consume('{')) {
    return false;
  }
  bool saw_events = false;
  char c = 0;
  if (cursor.Peek(c) && c == '}') {
    return cursor.Fail("top-level object has no \"traceEvents\"");
  }
  for (;;) {
    std::string key;
    if (!cursor.ParseString(&key) || !cursor.Consume(':')) {
      return false;
    }
    if (key == "traceEvents") {
      bool want_events = true;
      if (!cursor.ParseArray(&want_events)) {
        return false;
      }
      saw_events = true;
    } else if (!cursor.ParseValue(nullptr)) {
      return false;
    }
    if (!cursor.Peek(c)) {
      return cursor.Fail("unterminated top-level object");
    }
    if (c == ',') {
      cursor.Consume(',');
      continue;
    }
    break;
  }
  if (!cursor.Consume('}')) {
    return false;
  }
  if (!cursor.AtEnd()) {
    return cursor.Fail("trailing content after top-level object");
  }
  if (!saw_events) {
    return cursor.Fail("missing \"traceEvents\" array");
  }
  return true;
}

}  // namespace emu::obs
