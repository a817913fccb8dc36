// Streaming trace reader with skip-corrupt-block recovery.
//
// Open errors (missing file, bad magic, wrong version, corrupt header) are
// terminal: error() is set and next() yields nothing. Block-level damage is
// not: a block whose CRC or decode fails is skipped (counted in stats), and
// a truncated tail ends the stream cleanly with stats().truncated_tail set.
// The reader never throws.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crawler/records.h"
#include "trace/codec.h"
#include "trace/storage.h"

namespace p2p::trace {

class TraceReader final : public StorageReader {
 public:
  /// Read from an open stream (not owned). The header is validated eagerly.
  explicit TraceReader(std::istream& in);
  /// Open `path`. error() is kIoError when the file cannot be opened.
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] bool ok() const override { return error_ == TraceError::kNone; }
  [[nodiscard]] TraceError error() const override { return error_; }
  /// Human-readable open diagnosis ("" when ok).
  [[nodiscard]] const std::string& error_message() const override {
    return error_message_;
  }

  /// Valid when ok().
  [[nodiscard]] const TraceHeader& header() const override { return header_; }

  /// Pull the next record, advancing through blocks as needed. Returns
  /// false at end of stream (also on open error), and on every call after.
  /// Summary blocks encountered along the way are captured (see
  /// summary()). `out` is overwritten by swap; its old contents are
  /// recycled as decode storage. A records block is all or nothing: one
  /// that fails to decode part-way yields none of its records.
  [[nodiscard]] bool next(crawler::ResponseRecord& out) override;

  /// The last summary block seen so far. Definitive once next() has
  /// returned false.
  [[nodiscard]] const std::optional<StudySummary>& summary() const override {
    return summary_;
  }

  [[nodiscard]] const ReadStats& stats() const override { return stats_; }

  /// The segment-index footer, when this file is a segment written by the
  /// segment backend (absent in plain single-file traces). Definitive once
  /// next() has returned false.
  [[nodiscard]] const std::optional<SegmentIndex>& segment_index() const {
    return segment_index_;
  }

 private:
  void open(std::istream& in);
  /// Load the next decodable records block into the cursor. Returns false
  /// at end of stream.
  bool advance_block();

  std::unique_ptr<std::ifstream> owned_in_;
  std::istream* in_ = nullptr;
  TraceError error_ = TraceError::kNone;
  std::string error_message_;
  TraceHeader header_;
  std::optional<StudySummary> summary_;
  std::optional<SegmentIndex> segment_index_;
  ReadStats stats_;
  bool done_ = false;

  // One payload buffer for every block, and a cursor over the current
  // records block. block_records_ holds reusable slots: the first
  // block_size_ are the block's decoded records, and each block decodes
  // over the slots (and their strings' storage) of the blocks before it.
  util::Bytes payload_;
  std::vector<crawler::ResponseRecord> block_records_;
  std::size_t block_size_ = 0;
  std::size_t block_pos_ = 0;
};

/// Everything in one call: header + all records + summary + stats. `error`
/// is the open error (block damage shows up in `stats`).
struct TraceData {
  TraceError error = TraceError::kNone;
  std::string error_message;
  TraceHeader header;
  std::optional<StudySummary> summary;
  std::vector<crawler::ResponseRecord> records;
  ReadStats stats;

  [[nodiscard]] bool ok() const { return error == TraceError::kNone; }
};

[[nodiscard]] TraceData read_trace_file(const std::string& path);

}  // namespace p2p::trace
