// Process-wide heap-allocation count (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench {

/// Number of global operator new calls so far, on every thread.
std::uint64_t allocations() noexcept;

}  // namespace perfbench
