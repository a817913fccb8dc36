// Scoped-span profiler with Chrome trace-event export.
//
// OBS_SPAN("phase.name") opens a span that records wall time (steady
// clock, microseconds) and — when the calling thread has registered a sim
// clock with util::Logger (sim::Network does, for its lifetime) — the
// simulated interval too. Spans nest naturally: each is a complete 'X'
// event, so "where does a --quick study spend time" is answerable by
// loading the --profile output in Perfetto / chrome://tracing.
//
// Threading: every thread records into its own bounded buffer (registered
// with the global profiler under a mutex on first use); recording itself is
// lock-free and costs one relaxed atomic load + branch while the profiler
// is disabled. Sweep workers therefore profile concurrently without
// contention, each under its own tid. Export (write_chrome_trace) walks
// all buffers under the registration mutex — call it after workers joined.
//
// Spans measure the host machine, not the simulation, so the profile is
// inherently non-deterministic and never feeds the byte-comparable outputs
// (reports, sweeps, traces). Under P2P_OBS_DISABLED the macro expands to
// nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace p2p::obs {

struct SpanEvent {
  const char* name = "";  // static literal from the OBS_SPAN site
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  /// Sim time at span open / sim duration covered, in ms; -1 when the
  /// recording thread had no sim clock registered.
  std::int64_t sim_start_ms = -1;
  std::int64_t sim_dur_ms = -1;
  std::uint32_t depth = 0;  // nesting level at open (0 = top-level)
};

class SpanProfiler {
 public:
  static SpanProfiler& global();

  /// Start recording. `max_spans_per_thread` bounds each thread's buffer;
  /// spans past the bound are counted as dropped.
  void enable(std::size_t max_spans_per_thread = 1 << 16);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
  /// `{"traceEvents":[{"name","cat","ph":"X","ts","dur","pid","tid","args"}...],
  /// "otherData":{"spans_dropped":N}}` — N counts the spans the per-thread
  /// bound dropped. Loads in Perfetto and chrome://tracing.
  void write_chrome_trace(std::ostream& out) const;

  [[nodiscard]] std::size_t total_spans() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Drop every recorded span and thread registration (tids restart at 1).
  /// Tests use this; production code enables once per process. Must not
  /// run while any span is open (open spans hold buffer pointers).
  void reset();

  // -- recording internals (used by ScopedSpan) --
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::uint64_t dropped = 0;
    std::vector<SpanEvent> spans;
  };
  /// The calling thread's buffer, registered on first use. Stable address
  /// for the process lifetime.
  ThreadBuffer& local();
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }
  [[nodiscard]] std::size_t max_spans() const {
    return max_spans_.load(std::memory_order_relaxed);
  }

 private:
  SpanProfiler();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> max_spans_{1 << 16};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ registration + export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> reset_generation_{0};
};

#ifndef P2P_OBS_DISABLED

/// RAII span: snapshots clocks at open if (and only if) the profiler is
/// enabled, pushes one SpanEvent at close. Cheap when disabled: one
/// relaxed load and a branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    SpanProfiler& p = SpanProfiler::global();
    if (!p.enabled()) return;
    open(p, name);
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(SpanProfiler& p, const char* name);
  void close();

  SpanProfiler::ThreadBuffer* buffer_ = nullptr;
  SpanEvent event_{};
  std::chrono::steady_clock::time_point start_{};
};

// Two-level expansion so __LINE__ stringizes into a unique identifier.
#define P2P_OBS_SPAN_CONCAT2(a, b) a##b
#define P2P_OBS_SPAN_CONCAT(a, b) P2P_OBS_SPAN_CONCAT2(a, b)
#define OBS_SPAN(name) \
  ::p2p::obs::ScopedSpan P2P_OBS_SPAN_CONCAT(obs_span_, __LINE__) { name }

#else  // P2P_OBS_DISABLED

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#define OBS_SPAN(name) ((void)0)

#endif  // P2P_OBS_DISABLED

}  // namespace p2p::obs
