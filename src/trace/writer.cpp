#include "trace/writer.h"

#include "obs/metrics.h"
#include "obs/profile.h"

namespace p2p::trace {

namespace {

// Trace I/O counters (per-registry; sweep tasks record into their scoped
// registry). References rebind via bound_metrics when the registry changes.
struct WriterMetrics {
  obs::Counter& records =
      obs::MetricsRegistry::global().counter("trace.records_written");
  obs::Counter& blocks =
      obs::MetricsRegistry::global().counter("trace.blocks_written");
  obs::Counter& bytes =
      obs::MetricsRegistry::global().counter("trace.bytes_written");
};

void write_prologue_and_header(std::ostream& out, const TraceHeader& header,
                               std::uint64_t& bytes_written) {
  util::ByteWriter body;
  encode_header_body(body, header);

  util::ByteWriter w;
  w.u32le(kTraceMagic);
  w.u16le(header.version);
  w.u16le(0);  // reserved
  w.u32le(static_cast<std::uint32_t>(body.size()));
  w.bytes(body.data());
  w.u32le(util::crc32(body.data()));
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  bytes_written += w.size();
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, const TraceHeader& header,
                         TraceWriterOptions options)
    : out_(&out), options_(options) {
  if (options_.records_per_block == 0) options_.records_per_block = 1;
  write_prologue_and_header(*out_, header, bytes_written_);
}

TraceWriter::TraceWriter(const std::string& path, const TraceHeader& header,
                         TraceWriterOptions options)
    : owned_out_(std::make_unique<std::ofstream>(
          path, std::ios::binary | std::ios::trunc)),
      out_(owned_out_.get()),
      options_(options) {
  if (options_.records_per_block == 0) options_.records_per_block = 1;
  if (!*owned_out_) {
    ok_ = false;
    return;
  }
  write_prologue_and_header(*out_, header, bytes_written_);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::on_record(const crawler::ResponseRecord& record) {
  if (!ok_) return;
  encode_record(pending_, record);
  ++pending_count_;
  ++records_written_;
  obs::bound_metrics<WriterMetrics>().records.add();
  if (pending_count_ >= options_.records_per_block) flush_records();
}

void TraceWriter::write_summary(const StudySummary& summary) {
  if (!ok_) return;
  flush_records();
  util::ByteWriter payload;
  encode_summary(payload, summary);
  write_block(BlockKind::kSummary, payload.data());
}

void TraceWriter::write_segment_index(const SegmentIndex& index) {
  if (!ok_) return;
  flush_records();
  util::ByteWriter payload;
  encode_segment_index(payload, index);
  write_block(BlockKind::kSegmentIndex, payload.data());
}

void TraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  if (ok_) flush_records();
  if (out_ != nullptr) {
    out_->flush();
    if (!*out_) ok_ = false;
  }
}

void TraceWriter::flush_records() {
  if (pending_count_ == 0) return;
  OBS_SPAN("trace.flush_records");
  util::ByteWriter count;
  count.varint(pending_count_);
  write_block(BlockKind::kRecords, count.data(), pending_.data());
  pending_.clear();  // keeps its capacity for the next block
  pending_count_ = 0;
}

void TraceWriter::write_block(BlockKind kind, util::ByteView payload_head,
                              util::ByteView payload_tail) {
  const std::uint64_t frame_offset = bytes_written_;
  const std::uint64_t payload_size = payload_head.size() + payload_tail.size();
  util::ByteWriter head;
  const std::uint8_t kind_byte = static_cast<std::uint8_t>(kind);
  head.u8(kind_byte);
  head.varint(payload_size);
  // The CRC covers the kind byte too: a flipped kind must read as a corrupt
  // block, not as a silently skippable unknown kind.
  head.u32le(util::crc32(payload_tail,
                         util::crc32(payload_head, util::crc32({&kind_byte, 1}))));
  // The payload goes straight from the caller's buffers to the stream —
  // framing never copies the block body.
  for (util::ByteView part : {util::ByteView(head.data()), payload_head, payload_tail}) {
    out_->write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(part.size()));
  }
  if (!*out_) {
    ok_ = false;
    return;
  }
  const std::uint64_t frame_size = head.size() + payload_size;
  bytes_written_ += frame_size;
  ++blocks_written_;
  if (block_observer_) block_observer_(kind, frame_offset, frame_size);
  auto& metrics = obs::bound_metrics<WriterMetrics>();
  metrics.blocks.add();
  metrics.bytes.add(frame_size);
}

}  // namespace p2p::trace
