// Out-of-core map-reduce replay of a segment directory (`.p2ps/`).
//
// Segments fan out across a thread pool; each worker streams its segment
// exactly once, folding records into the mergeable accumulators (analysis
// families, windowed series, honeypot coverage, filter-training counts) and
// keeping, still encoded, the few records the filter split may need —
// never materializing the capture. Partials merge on the main thread in
// manifest (= stream) order, the filters are learned from the merged counts
// plus the boundary segment's retained training share, and the retained
// post-split records evaluate them. Every statistic is either a sum/union
// or finalized over the merged state, so the report is byte-identical to a
// serial whole-trace replay at any jobs count — the property the longhaul
// CI tier pins with cmp.
//
// Failure containment matches SegmentReader: an unopenable or mismatched
// segment is dropped whole (segments_corrupt), damaged blocks inside a
// segment cost only themselves (blocks_corrupt), and the report covers
// every record that survived. A damaged MANIFEST is the one hard error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/windowed.h"
#include "core/report.h"
#include "trace/storage.h"

namespace p2p::core {

struct ReplayOptions {
  /// Worker threads for the parallel pass over the segments (clamped to
  /// segment count; 1 = serial in-thread).
  std::size_t jobs = 1;
  /// Window width for the rolling analytics; 0 inherits the capture's
  /// segment window from the MANIFEST.
  std::int64_t window_ms = 0;
};

struct ReplayResult {
  bool ok = false;
  std::string error;  // set when !ok (manifest damage, empty dir)
  Report report;
  /// Rolling windowed series over the full stream (honeypot included).
  std::vector<analysis::WindowRow> windows;
  /// Aggregated decode stats across all segments.
  trace::ReadStats stats;
  std::uint64_t segments_total = 0;  // listed in the manifest
};

[[nodiscard]] ReplayResult replay_segment_dir(const std::string& dir,
                                              const ReplayOptions& options = {});

}  // namespace p2p::core
