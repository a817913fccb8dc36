#include "obs/profile.h"

#include "obs/json.h"
#include "util/log.h"

namespace p2p::obs {

SpanProfiler& SpanProfiler::global() {
  static SpanProfiler profiler;
  return profiler;
}

SpanProfiler::SpanProfiler() : epoch_(std::chrono::steady_clock::now()) {}

void SpanProfiler::enable(std::size_t max_spans_per_thread) {
  max_spans_.store(max_spans_per_thread, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void SpanProfiler::disable() {
  enabled_.store(false, std::memory_order_release);
}

SpanProfiler::ThreadBuffer& SpanProfiler::local() {
  // Cache the buffer per thread, invalidated by reset() via a generation
  // bump (a reset frees every buffer, so cached pointers must re-register).
  // The fast path — already registered, no reset since — is lock-free.
  thread_local ThreadBuffer* cached = nullptr;
  thread_local std::uint64_t cached_generation = ~0ull;
  std::uint64_t generation = reset_generation_.load(std::memory_order_acquire);
  if (cached == nullptr || cached_generation != generation) {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-read under the lock: a concurrent reset() between the load above
    // and here must not leave us holding a buffer it just freed.
    generation = reset_generation_.load(std::memory_order_relaxed);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    cached = buffers_.back().get();
    cached->tid = static_cast<std::uint32_t>(buffers_.size());
    cached_generation = generation;
  }
  return *cached;
}

void SpanProfiler::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    dropped += buffer->dropped;
    for (const auto& e : buffer->spans) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << json_escape(e.name)
          << "\",\"cat\":\"p2p\",\"ph\":\"X\",\"ts\":" << e.start_us
          << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << buffer->tid
          << ",\"args\":{\"depth\":" << e.depth;
      if (e.sim_start_ms >= 0) {
        out << ",\"sim_ms\":" << e.sim_start_ms
            << ",\"sim_dur_ms\":" << e.sim_dur_ms;
      }
      out << "}}";
    }
  }
  // A capped trace says so: viewers show otherData as trace metadata.
  out << "],\"otherData\":{\"spans_dropped\":" << dropped << "}}\n";
}

std::size_t SpanProfiler::total_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

std::uint64_t SpanProfiler::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->dropped;
  return n;
}

void SpanProfiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  reset_generation_.fetch_add(1, std::memory_order_release);
}

#ifndef P2P_OBS_DISABLED

void ScopedSpan::open(SpanProfiler& p, const char* name) {
  buffer_ = &p.local();
  event_.name = name;
  event_.depth = buffer_->depth++;
  if (auto sim = util::Logger::instance().sim_now()) {
    event_.sim_start_ms = sim->millis();
  }
  start_ = std::chrono::steady_clock::now();
  event_.start_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        start_ - p.epoch())
                        .count();
}

void ScopedSpan::close() {
  auto now = std::chrono::steady_clock::now();
  event_.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_).count();
  if (event_.sim_start_ms >= 0) {
    if (auto sim = util::Logger::instance().sim_now()) {
      event_.sim_dur_ms = sim->millis() - event_.sim_start_ms;
    }
  }
  --buffer_->depth;
  SpanProfiler& p = SpanProfiler::global();
  if (buffer_->spans.size() < p.max_spans()) {
    buffer_->spans.push_back(event_);
  } else {
    ++buffer_->dropped;
  }
}

#endif  // P2P_OBS_DISABLED

}  // namespace p2p::obs
