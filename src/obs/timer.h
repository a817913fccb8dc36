// Scoped wall-clock timer feeding a histogram: std::chrono::steady_clock,
// for the wall-clock cost of hot paths (scan latency, per-event execution).
// Non-deterministic; pair it with a HistogramSpec marked wall_clock so
// deterministic exports skip it. Simulated latencies (query → hit) span
// events, so callers record their difference into a histogram directly.
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace p2p::obs {

class ScopedWallTimer {
 public:
#ifndef P2P_OBS_DISABLED
  explicit ScopedWallTimer(Histogram& hist)
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedWallTimer() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    hist_->record(static_cast<std::int64_t>(ns));
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
#else
  explicit ScopedWallTimer(Histogram&) {}
#endif
 public:
  ScopedWallTimer(const ScopedWallTimer&) = delete;
  ScopedWallTimer& operator=(const ScopedWallTimer&) = delete;
};

}  // namespace p2p::obs
