#include "alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr std::size_t kSlots = 16;  // power of two

struct alignas(64) Slot {
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};

// Trivially destructible, so it stays usable during thread teardown.
thread_local unsigned t_slot = kSlots;

void count(std::size_t size) noexcept {
    if (t_slot == kSlots) {
        t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) & (kSlots - 1);
    }
    Slot& slot = g_slots[t_slot];
    slot.allocs.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
    count(size);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    count(size);
    const auto alignment = static_cast<std::size_t>(align);
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                       size == 0 ? 1 : size) == 0) {
        return p;
    }
    throw std::bad_alloc();
}

}  // namespace

AllocTotals alloc_totals() noexcept {
    AllocTotals totals;
    for (const Slot& slot : g_slots) {
        totals.allocs += slot.allocs.load(std::memory_order_relaxed);
        totals.bytes += slot.bytes.load(std::memory_order_relaxed);
    }
    return totals;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate_aligned(size, align);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate_aligned(size, align);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
