// sim::ShardQueue — the event heap under every shard of sim::ShardedEngine.
//
// A 4-ary implicit heap over 24-byte trivially-copyable keys; the closures
// themselves never ride the heap but sit in a recycled slab indexed by the
// key's slot, so a sift moves three words per level instead of a ~100-byte
// Task, and the 4-ary tree has half the depth of a binary heap. Freed slots
// are recycled LIFO so a steady-state run touches the same few cache lines.
//
// Keys order by the engine's intrinsic (at, origin entity, origin sequence)
// triple. Origin sequences are unique per origin, so no two live entries
// ever compare equal and pop order is a strict total order — property-tested
// against std::priority_queue in tests/test_event_queue.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/task.h"

namespace p2p::sim {

class ShardQueue {
 public:
  using EntityId = std::uint32_t;

  /// Heap node: the ordering key plus the closure's slab slot.
  struct Entry {
    std::int64_t at_ms;
    std::uint64_t oseq;  // origin-entity sequence number
    EntityId oid;        // origin entity
    std::uint32_t slot;
  };

  /// True when `a` must run before `b`: (at, origin entity, origin seq).
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
    if (a.oid != b.oid) return a.oid < b.oid;
    return a.oseq < b.oseq;
  }

  /// An executed event: its key, the destination entity whose context the
  /// handler runs in, and the closure.
  struct Popped {
    Entry entry;
    EntityId dst;
    Task action;
  };

  /// `entry.slot` is assigned here; callers leave it zero.
  void push(Entry entry, EntityId dst, Task action);
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Earliest entry. Precondition: !empty().
  [[nodiscard]] const Entry& top() const { return heap_.front(); }
  /// Removes and returns the earliest event. Precondition: !empty().
  Popped pop();

 private:
  static constexpr std::size_t kArity = 4;

  // Children of i are kArity*i+1 .. kArity*i+kArity.
  std::vector<Entry> heap_;
  std::vector<Task> tasks_;
  std::vector<EntityId> dsts_;
  std::vector<std::uint32_t> free_slots_;
};

inline void ShardQueue::push(Entry entry, EntityId dst, Task action) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    tasks_[slot] = std::move(action);
    dsts_[slot] = dst;
  } else {
    slot = static_cast<std::uint32_t>(tasks_.size());
    tasks_.push_back(std::move(action));
    dsts_.push_back(dst);
  }
  entry.slot = slot;
  // Hole-based sift-up: float the insertion point toward the root before
  // placing the entry, so each level costs one Entry move, not a swap.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

inline ShardQueue::Popped ShardQueue::pop() {
  Entry result = heap_.front();
  Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the former last leaf down from the root, moving the earliest
    // child up into the hole each level.
    std::size_t i = 0;
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t first_child = i * kArity + 1;
      if (first_child >= size) break;
      std::size_t best = first_child;
      std::size_t end = std::min(first_child + kArity, size);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  // Lift the closure out of the slab before it runs: the event may push
  // more events, which can reuse (or reallocate) the slab.
  Popped popped{result, dsts_[result.slot], std::move(tasks_[result.slot])};
  free_slots_.push_back(result.slot);
  return popped;
}

}  // namespace p2p::sim
