// Allocation counting for the traced binary only. Built with
// PERFBENCH_COUNT_ALLOCS (mot_perfbench_traced), the global operator new
// and delete are replaced by malloc/free wrappers that bump the calling
// thread's counters, which the layer brackets read. Without it
// (mot_perfbench, which measures the end-to-end metrics) the system
// allocator is left alone and every count reads 0.
#include <algorithm>
#include <cstdlib>
#include <new>

#include "probe.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS

namespace perfbench {

namespace {

thread_local AllocCount t_allocs;

void* counted_malloc(std::size_t size) {
  ++t_allocs.count;
  t_allocs.bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  ++t_allocs.count;
  t_allocs.bytes += size;
  void* memory = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&memory, alignment, size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return memory;
}

}  // namespace

bool counts_allocations() { return true; }

AllocCount thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#else  // !PERFBENCH_COUNT_ALLOCS

namespace perfbench {

bool counts_allocations() { return false; }

AllocCount thread_allocs() { return {}; }

}  // namespace perfbench

#endif  // PERFBENCH_COUNT_ALLOCS
