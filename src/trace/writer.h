// Buffered append-only trace writer. Implements crawler::RecordSink so it
// plugs straight into a crawler (or core::Study) and captures every
// response as it is joined with its download+scan outcome.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "crawler/records.h"
#include "trace/codec.h"
#include "trace/storage.h"

namespace p2p::trace {

struct TraceWriterOptions {
  /// Records per block. Larger blocks amortize frame+CRC overhead; smaller
  /// blocks lose less data to a corrupt block.
  std::size_t records_per_block = 256;
};

class TraceWriter final : public StorageWriter {
 public:
  /// Write to an open stream (not owned; must outlive the writer).
  TraceWriter(std::ostream& out, const TraceHeader& header,
              TraceWriterOptions options = {});
  /// Create/truncate `path`. ok() is false when the file cannot be opened.
  TraceWriter(const std::string& path, const TraceHeader& header,
              TraceWriterOptions options = {});
  ~TraceWriter() override;

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Buffer one record; flushes a block every records_per_block.
  void on_record(const crawler::ResponseRecord& record) override;

  /// Write a summary block immediately (flushing buffered records first so
  /// block order matches write order).
  void write_summary(const StudySummary& summary) override;

  /// Write a segment-index footer block (segment backend only; a plain
  /// single-file capture never calls this, keeping its bytes unchanged).
  void write_segment_index(const SegmentIndex& index);

  /// Flush the partial block and the stream. Called by the destructor;
  /// call explicitly to check ok() before relying on the file.
  void close() override;

  [[nodiscard]] bool ok() const override {
    return ok_ && out_ != nullptr && *out_;
  }
  [[nodiscard]] std::uint64_t records_written() const override {
    return records_written_;
  }
  [[nodiscard]] std::uint64_t blocks_written() const override {
    return blocks_written_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const override {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t segments_written() const override { return 1; }

  /// Observe every framed block as it is written: (kind, byte offset of the
  /// frame in the file, frame size). The segment backend uses this to build
  /// its index footer; pass nullptr to detach.
  using BlockObserver =
      std::function<void(BlockKind, std::uint64_t offset, std::uint64_t size)>;
  void set_block_observer(BlockObserver observer) {
    block_observer_ = std::move(observer);
  }

 private:
  /// Frame one block whose payload is `payload_head` then `payload_tail`,
  /// writing both from where they lie.
  void write_block(BlockKind kind, util::ByteView payload_head,
                   util::ByteView payload_tail = {});
  void flush_records();

  std::unique_ptr<std::ofstream> owned_out_;
  std::ostream* out_ = nullptr;
  TraceWriterOptions options_;
  bool ok_ = true;
  bool closed_ = false;

  util::ByteWriter pending_;        // encoded records of the open block
  std::size_t pending_count_ = 0;
  BlockObserver block_observer_;
  std::uint64_t records_written_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace p2p::trace
