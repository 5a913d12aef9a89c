#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "datagen/openimages.h"

/// \file datagen_perf_test.cc
/// Machine-independent allocation guard for server-side arrival generation
/// (ctest label `perf`): every `ingest` / `update` generates its photos with
/// GenerateOpenImagesCorpus, so what one call allocates is a fixed per-call
/// cost. The global operator new is replaced by a counting one that also
/// records sizes. A 16-photo call must stay far below the ~195 000
/// allocations it made while the 200 000-label vocabulary was materialized
/// per call (~700 without it), and must allocate no table sized by the
/// vocabulary or the projection: the 1 600 000 B Zipf CDF and the
/// 634 880 B projection matrix it once rebuilt per call (7.2 MB in all)
/// are now built once per process.

namespace {

/// No block this large may be allocated per call: it would be a table, not
/// a per-photo buffer.
constexpr std::size_t kLargeBlock = 256 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
std::atomic<std::size_t> g_largest{0};

void Count(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size,
                                          std::memory_order_relaxed)) {
  }
}

void* CountedAlloc(std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  Count(size);
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace phocus {
namespace {

struct CallAllocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
  std::size_t largest = 0;
};

/// Allocations made by one GenerateOpenImagesCorpus call, counted on every
/// thread (the render/embed phase fans out over the global pool).
CallAllocations AllocationsOfOneCall(const OpenImagesOptions& options) {
  g_allocations.store(0);
  g_bytes.store(0);
  g_largest.store(0);
  g_counting.store(true);
  const Corpus corpus = GenerateOpenImagesCorpus(options);
  g_counting.store(false);
  EXPECT_EQ(corpus.num_photos(), options.num_photos);
  return {g_allocations.load(), g_bytes.load(), g_largest.load()};
}

TEST(DatagenPerfTest, SixteenPhotoArrivalMakesFewerThanAThousandAllocations) {
  // phocusd's arrival options: the default 200 000-label vocabulary.
  OpenImagesOptions options;
  options.num_photos = 16;
  options.seed = 3;
  // Warm up once: the global thread pool, kernel tables, telemetry
  // registries and the generator's shared tables are built on first use,
  // not per call.
  AllocationsOfOneCall(options);
  const CallAllocations call = AllocationsOfOneCall(options);
  RecordProperty("allocations", static_cast<int>(call.count));
  RecordProperty("bytes", static_cast<int>(call.bytes));
  RecordProperty("largest", static_cast<int>(call.largest));
  EXPECT_LT(call.count, 1000u);
  EXPECT_GT(call.count, 0u);  // the counting operator new is live
  EXPECT_LT(call.largest, kLargeBlock);
  EXPECT_LT(call.bytes, 5u * 1024 * 1024);
}

}  // namespace
}  // namespace phocus
