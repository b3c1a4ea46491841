// Heap counters for the traced run. heap_hooks.cc replaces the global
// operator new/delete with counting versions (linked only into the traced
// binary); heap_hooks_off.cc is the untraced binary's stand-in, so the timed
// end-to-end runs never contain the hooks at all.
#ifndef E2EBENCH_HEAP_HOOKS_H_
#define E2EBENCH_HEAP_HOOKS_H_

#include "src/common/types.h"

namespace emu::e2e {

struct HeapCounts {
  u64 allocs = 0;
  u64 bytes = 0;
  u64 frees = 0;
  // Frees executed on a different thread from the one that allocated, of
  // blocks allocated in the current generation.
  u64 remote_frees = 0;
};

// True in the binary that links the counting hooks.
bool HeapHooksLinked();
// Counting is off until enabled; the hooks themselves are always in place.
void SetHeapCounting(bool enabled);
// Starts a new generation. The benchmark starts one per Step(), that is, per
// ParallelRunner::Run() call, which spawns fresh worker threads: a block that
// outlives its generation is freed by a new thread even when the same shard
// block frees it, so only frees within the allocating generation are judged.
void NextHeapGeneration();
HeapCounts ReadHeapCounts();

}  // namespace emu::e2e

#endif  // E2EBENCH_HEAP_HOOKS_H_
