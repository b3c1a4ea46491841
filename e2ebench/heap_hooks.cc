// Counting replacements for every global operator new/delete form.
//
// Each block carries a 16-byte header in front of the user pointer: the
// generation and the tag of the allocating thread, and the header's full
// offset from the malloc'd base (larger than 16 for over-aligned
// allocations). A free of a block from the current generation compares the
// stored tag with the freeing thread's tag to count remote frees. Counters
// are striped over cache-line-padded slots by thread tag so concurrent
// shards rarely share a line.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "e2ebench/heap_hooks.h"

namespace emu::e2e {
namespace {

constexpr std::size_t kHeader = 16;
constexpr std::size_t kStripes = 16;

struct alignas(64) Stripe {
  std::atomic<u64> allocs{0};
  std::atomic<u64> bytes{0};
  std::atomic<u64> frees{0};
  std::atomic<u64> remote_frees{0};
};

Stripe g_stripes[kStripes];
std::atomic<bool> g_counting{false};
std::atomic<u64> g_next_tag{1};
std::atomic<u64> g_generation{0};
// Constant-initialized and trivially destructible: safe to touch from inside
// operator new on any thread, at any point of its life.
thread_local u64 t_tag = 0;

u64 ThreadTag() {
  if (t_tag == 0) {
    t_tag = g_next_tag.fetch_add(1, std::memory_order_relaxed);
  }
  return t_tag;
}

// Generation in the high half, thread tag in the low half.
u64 Stamp(u64 tag) {
  return (g_generation.load(std::memory_order_relaxed) << 32) | (tag & 0xffffffffu);
}

void* Allocate(std::size_t size, std::size_t align) {
  const std::size_t head = align <= kHeader ? kHeader : align;
  if (size > static_cast<std::size_t>(-1) - 2 * head) {
    return nullptr;
  }
  void* base = nullptr;
  if (align <= kHeader) {
    base = std::malloc(size + head);
  } else {
    base = std::aligned_alloc(align, (size + head + align - 1) / align * align);
  }
  if (base == nullptr) {
    return nullptr;
  }
  char* user = static_cast<char*>(base) + head;
  const u64 tag = ThreadTag();
  const u64 meta[2] = {Stamp(tag), head};
  std::memcpy(user - kHeader, meta, sizeof(meta));
  if (g_counting.load(std::memory_order_relaxed)) {
    Stripe& s = g_stripes[tag % kStripes];
    s.allocs.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return user;
}

void Release(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  char* user = static_cast<char*>(ptr);
  u64 meta[2];
  std::memcpy(meta, user - kHeader, sizeof(meta));
  if (g_counting.load(std::memory_order_relaxed)) {
    const u64 tag = ThreadTag();
    Stripe& s = g_stripes[tag % kStripes];
    s.frees.fetch_add(1, std::memory_order_relaxed);
    const u64 here = Stamp(tag);
    if ((meta[0] >> 32) == (here >> 32) && meta[0] != here) {
      s.remote_frees.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::free(user - meta[1]);
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size == 0 ? 1 : size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

bool HeapHooksLinked() { return true; }

void SetHeapCounting(bool enabled) { g_counting.store(enabled, std::memory_order_relaxed); }

void NextHeapGeneration() { g_generation.fetch_add(1, std::memory_order_relaxed); }

HeapCounts ReadHeapCounts() {
  HeapCounts out;
  for (const Stripe& s : g_stripes) {
    out.allocs += s.allocs.load(std::memory_order_relaxed);
    out.bytes += s.bytes.load(std::memory_order_relaxed);
    out.frees += s.frees.load(std::memory_order_relaxed);
    out.remote_frees += s.remote_frees.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace emu::e2e

using emu::e2e::AllocateOrThrow;

void* operator new(std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return emu::e2e::Allocate(size == 0 ? 1 : size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return emu::e2e::Allocate(size == 0 ? 1 : size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return emu::e2e::Allocate(size == 0 ? 1 : size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return emu::e2e::Allocate(size == 0 ? 1 : size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { emu::e2e::Release(p); }
void operator delete[](void* p) noexcept { emu::e2e::Release(p); }
void operator delete(void* p, std::size_t) noexcept { emu::e2e::Release(p); }
void operator delete[](void* p, std::size_t) noexcept { emu::e2e::Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { emu::e2e::Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { emu::e2e::Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { emu::e2e::Release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { emu::e2e::Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { emu::e2e::Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { emu::e2e::Release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  emu::e2e::Release(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  emu::e2e::Release(p);
}
