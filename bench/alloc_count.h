// Counting allocator hook for the sim-core microbench: alloc_count.cpp
// replaces the global operator new/delete so every heap byte a measured
// loop touches is visible (std::function control blocks, vector buffers,
// Payload reps). Aggregates only; never throws off hot paths. The
// replacements live in their own translation unit so the compiler never
// inlines the malloc/free pair into callers that allocate with new.
#pragma once

#include <cstdint>

namespace p2p::bench {

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
};

/// Allocation calls and bytes since process start.
AllocSnapshot alloc_now();
/// Allocation calls and bytes since `start`.
AllocSnapshot alloc_since(const AllocSnapshot& start);

}  // namespace p2p::bench
