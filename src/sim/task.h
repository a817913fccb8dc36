// sim::Task — the event queue's callable, tuned for the scheduling hot
// path. std::function heap-allocates any capture larger than the libstdc++
// SBO (16 bytes on this toolchain), and the simulation's typical event —
// a [this, conn, receiver, payload] delivery closure — is 24-40 bytes, so
// every scheduled event used to pay one allocation. Task widens the inline
// buffer to 64 bytes, covering every closure the simulator schedules today
// (asserted in debug via the capture-size counters below), and is move-only
// so captured Payload handles transfer instead of bumping refcounts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace p2p::sim {

class Task {
 public:
  /// Inline capture budget. Sized for the fattest hot-path closure
  /// (Network::schedule_node wraps a std::function: 8 this + 4 id + 8 gen
  /// + 32 std::function = 56 bytes) with headroom; anything larger falls
  /// back to one heap allocation, exactly like std::function always did.
  static constexpr std::size_t kInlineSize = 64;

  Task() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      if constexpr (!trivial_inline<Fn>()) {
        // Trivially-copyable captures leave manage_ null: the heap sift
        // moves them with one raw storage copy and never pays an indirect
        // call. Everything else (Payload handles, std::function wrappers)
        // keeps the full move/destroy protocol.
        manage_ = [](Op op, void* s, void* dst) {
          Fn* self = std::launder(reinterpret_cast<Fn*>(s));
          if (op == Op::kMoveTo) ::new (dst) Fn(std::move(*self));
          self->~Fn();
        };
      }
      debug_count(stats_ref().inline_constructed, sizeof(Fn));
    } else {
      ptr() = new Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (**static_cast<Fn**>(s))(); };
      manage_ = [](Op op, void* s, void* dst) {
        Fn** self = static_cast<Fn**>(s);
        if (op == Op::kMoveTo) {
          *static_cast<Fn**>(dst) = *self;
        } else {
          delete *self;
        }
        *self = nullptr;
      };
      debug_count(stats_ref().heap_constructed, sizeof(Fn));
    }
  }

  Task(Task&& other) noexcept { move_from(other); }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  /// Debug-build telemetry: how many tasks took the inline vs. heap path
  /// and the largest capture seen. All zero in release builds (NDEBUG);
  /// the hot path stays count-free there.
  struct Stats {
    std::atomic<std::uint64_t> inline_constructed{0};
    std::atomic<std::uint64_t> heap_constructed{0};
    std::atomic<std::uint64_t> max_capture_bytes{0};
  };
  static const Stats& stats() noexcept { return stats_ref(); }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };
  using InvokeFn = void (*)(void*);
  // Moves the stored callable into `dst` (kMoveTo) or just destroys it
  // (kDestroy); either way the source slot ends up dead.
  using ManageFn = void (*)(Op, void* self, void* dst);

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  // An empty callable writes no byte of storage_, so it keeps manage_ (a
  // no-op move) rather than have a raw copy read the unwritten buffer.
  template <typename Fn>
  static constexpr bool trivial_inline() {
    return std::is_trivially_copyable_v<Fn> &&
           std::is_trivially_destructible_v<Fn> && !std::is_empty_v<Fn>;
  }

  void move_from(Task& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void*& ptr() { return *reinterpret_cast<void**>(storage_); }

  // Function-local so the nested Stats type is complete when instantiated
  // (an inline static data member would need Stats' NSDMIs inside Task).
  static Stats& stats_ref() noexcept {
    static Stats s;
    return s;
  }

  static void debug_count(std::atomic<std::uint64_t>& counter,
                          std::size_t capture_bytes) {
#ifndef NDEBUG
    counter.fetch_add(1, std::memory_order_relaxed);
    auto& max = stats_ref().max_capture_bytes;
    std::uint64_t seen = max.load(std::memory_order_relaxed);
    while (seen < capture_bytes &&
           !max.compare_exchange_weak(seen, capture_bytes,
                                      std::memory_order_relaxed)) {
    }
#else
    (void)counter;
    (void)capture_bytes;
#endif
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace p2p::sim
