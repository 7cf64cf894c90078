// Process-wide heap allocation counter.
//
// alloc_counter.cpp replaces the global operator new / operator delete
// family for the whole benchmark process, so every allocation the library
// makes (on any thread) is counted. Counting is a relaxed increment on a
// per-thread slot; reading sums the slots.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocTotals {
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/// Allocations made since process start (all threads). Take the difference
/// of two reads to count a region; concurrent allocations may land on
/// either side of a read.
AllocTotals alloc_totals() noexcept;

}  // namespace perfbench
