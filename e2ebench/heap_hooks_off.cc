#include "e2ebench/heap_hooks.h"

namespace emu::e2e {

bool HeapHooksLinked() { return false; }
void SetHeapCounting(bool) {}
void NextHeapGeneration() {}
HeapCounts ReadHeapCounts() { return {}; }

}  // namespace emu::e2e
