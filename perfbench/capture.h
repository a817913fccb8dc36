// capture_replay's input: a seeded synthetic KAD capture streamed straight
// into the segment-directory writer (the trace layer's write path), ready
// for core::replay_segment_dir (its read path).
//
// The stream mixes the active client's responses (network "kad") with
// passive honeypot observations ("kad.honeypot/NN") in the proportions a
// real KAD study produces: every share in capture.cpp is taken from the
// standard KAD preset (EXPERIMENTS.md "Run volume", E2 and E9, and one
// `kad_study --seed 7 --csv` run; perfbench/BENCHMARK.md lists them). Every
// record is a pure function of (seed, index) and timestamps never
// decrease, so the same seed always writes the same bytes.
#pragma once

#include <cstdint>
#include <string>

#include "ledger.h"

namespace p2pbench {

struct CaptureSpec {
  std::uint64_t seed = 1;
  std::uint64_t records = 2'000'000;
  std::int64_t days = 30;
};

struct CaptureStats {
  bool ok = false;
  std::uint64_t records = 0;
  std::uint64_t honeypot_records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t segments = 0;
  double sim_hours = 0.0;  // span of simulated time the capture covers
  double write_s = 0.0;    // time inside the segment writer's calls only
};

/// Replace `dir` with the capture of `spec`. With a ledger, each chunk's
/// generation is a "bench.generate" span and its hand-off to the writer a
/// "trace.write" span, both under one "bench.capture" root.
[[nodiscard]] CaptureStats write_capture(const std::string& dir,
                                         const CaptureSpec& spec,
                                         Ledger* ledger = nullptr);

}  // namespace p2pbench
