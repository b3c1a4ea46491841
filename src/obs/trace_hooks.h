// Lightweight trace hook surface (emu-scope).
//
// This header is what hot paths include: it exposes exactly one question —
// "is a trace buffer attached to this thread?" — and out-of-line emitters
// that are only reached when the answer is yes. With EMU_TRACE compiled in
// the cost of a detached hook is one thread-local load plus a predicted
// branch; with EMU_TRACE off, ActiveBuffer() is a constexpr nullptr and every
// guarded call site folds away entirely (same philosophy as the EMU_ANALYSIS
// hazard hooks, but without macros at the call sites).
//
// Shard safety: each shard of a parallel run owns its own TraceBuffer, and
// the runner binds the buffer to whichever worker thread executes the shard's
// epoch. Events therefore never cross threads, and the deterministic merge
// happens only at export time (see trace.h).
#ifndef SRC_OBS_TRACE_HOOKS_H_
#define SRC_OBS_TRACE_HOOKS_H_

#include <string_view>

#include "src/common/types.h"

namespace emu::obs {

class TraceBuffer;

#ifdef EMU_TRACE
// The buffer bound to this thread, or nullptr when tracing is detached.
// Bound by TraceSession::Install() (main thread -> shard 0) and by the
// parallel runner around each shard epoch. `constinit` tells the compiler the
// pointer needs no dynamic initialisation, so loads read the variable
// directly instead of going through the TLS init wrapper (which UBSan's null
// check flags on parallel-runner worker threads).
extern thread_local constinit TraceBuffer* tls_trace_buffer;

inline TraceBuffer* ActiveBuffer() { return tls_trace_buffer; }
#else
inline constexpr TraceBuffer* ActiveBuffer() { return nullptr; }
#endif

// Emitters, defined out of line so that hot headers stay light. `ts` / `dur`
// are absolute picoseconds; names are interned per shard and written back as
// strings at export, so shard-local intern order never leaks into output.
void EmitAsyncBegin(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 id);
void EmitAsyncEnd(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 id);
void EmitInstant(TraceBuffer* buffer, std::string_view name, Picoseconds ts);
void EmitComplete(TraceBuffer* buffer, std::string_view name, Picoseconds ts, Picoseconds dur);
void EmitCounter(TraceBuffer* buffer, std::string_view name, Picoseconds ts, u64 value);

// Next packet flight id for the shard owning `buffer`. Ids encode the shard
// in the high bits so two shards can assign concurrently without ever
// colliding, and deterministically (each shard counts its own ingresses).
u64 NextFlightId(TraceBuffer* buffer);

// Trace id of a frame-like value, or 0 when the type carries none. Lets
// templated containers (SyncFifo<T>) hook packet flights without knowing
// about Packet.
template <typename T>
inline u64 FrameTraceId(const T& value) {
  if constexpr (requires { value.trace_id(); }) {
    return value.trace_id();
  } else {
    (void)value;
    return 0;
  }
}

}  // namespace emu::obs

#endif  // SRC_OBS_TRACE_HOOKS_H_
