// Heap-allocation counter: the benchmark binary replaces the global
// operator new with a counting one (alloc_count.cpp), so every allocation
// the linked library makes is counted. Only the benchmark binary links it.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new / new[] calls since the process started, all threads.
std::uint64_t allocation_count() noexcept;

}  // namespace perfbench
