// Encoders/decoders for everything that lives inside a trace file: the
// header body, ResponseRecords, and the study summary block. One encoding,
// one fuzz surface — core::save_study_trace / load_study_trace and the sweep
// record/replay path all go through these functions.
#pragma once

#include "crawler/fetch.h"  // CrawlStats
#include "crawler/records.h"
#include "fault/fault.h"  // FaultCounters
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "trace/format.h"
#include "util/bytes.h"

namespace p2p::trace {

/// The non-record payload of a persisted study: the run counters and the
/// metrics snapshot that core::StudyResult carries beside its record log.
/// Stored in a summary block so a cached study replays byte-identically,
/// obs counters included.
struct StudySummary {
  std::uint64_t events_executed = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t churn_joins = 0;
  std::uint64_t churn_leaves = 0;
  crawler::CrawlStats crawl_stats;
  obs::MetricsSnapshot metrics;
  /// Fault-injection record (version 2): replaying a faulted trace reports
  /// the identical fault section without re-running the study.
  bool faults_enabled = false;
  fault::FaultCounters fault_counters;
  /// Windowed counter/gauge series (optional tail, written only when the
  /// run recorded one): replaying a trace reproduces the exact timeseries
  /// block without re-running the study.
  obs::TimeSeries timeseries;
};

// Header body (the bytes covered by the header CRC; the prologue fields are
// written by TraceWriter / checked by TraceReader).
void encode_header_body(util::ByteWriter& w, const TraceHeader& header);
/// Throws util::BufferUnderflow on malformed input (callers map that to
/// TraceError::kCorruptHeader).
[[nodiscard]] TraceHeader decode_header_body(util::ByteReader& r);

// One response record. decode re-derives type_by_name from the filename,
// exactly as the crawler did at capture time.
void encode_record(util::ByteWriter& w, const crawler::ResponseRecord& rec);
/// Decode one record over `rec`, assigning every field. The strings are
/// assigned from views into the reader's buffer (ByteReader::lp_view), so a
/// reused `rec` whose strings already have the capacity allocates nothing.
/// Throws util::BufferUnderflow on malformed input, leaving `rec` partly
/// overwritten.
void decode_record(util::ByteReader& r, crawler::ResponseRecord& rec);

// Summary block payload.
void encode_summary(util::ByteWriter& w, const StudySummary& summary);
[[nodiscard]] StudySummary decode_summary(util::ByteReader& r);

/// Index footer of one segment file (BlockKind::kSegmentIndex): what the
/// segment holds without decoding its record blocks. Purely descriptive —
/// replay correctness never depends on it (actual decoded counts drive the
/// merge), so a damaged index degrades inspection, not analysis.
struct SegmentIndex {
  /// floor(record.at / window) of every record in this segment.
  std::uint64_t window_index = 0;
  std::int64_t window_ms = 0;
  std::uint64_t records = 0;
  /// Honeypot observations among `records` (query_category == "honeypot").
  std::uint64_t honeypot_records = 0;
  /// Sim-time bounds over the segment's records (0/0 when empty).
  std::int64_t min_at_ms = 0;
  std::int64_t max_at_ms = 0;
  /// Per-block-kind counts, ascending by kind (the index block excluded).
  std::vector<std::pair<std::uint8_t, std::uint64_t>> kind_counts;
  /// Byte offset of each records block in the segment file, ascending.
  std::vector<std::uint64_t> block_offsets;
};

// Segment-index block payload.
void encode_segment_index(util::ByteWriter& w, const SegmentIndex& index);
[[nodiscard]] SegmentIndex decode_segment_index(util::ByteReader& r);

}  // namespace p2p::trace
