#include "trace/reader.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace p2p::trace {

namespace {

struct ReaderMetrics {
  obs::Counter& records =
      obs::MetricsRegistry::global().counter("trace.records_read");
  obs::Counter& blocks =
      obs::MetricsRegistry::global().counter("trace.blocks_read");
  obs::Counter& corrupt =
      obs::MetricsRegistry::global().counter("trace.blocks_corrupt");
};

/// Read exactly n bytes; false on short read (stream left failed/eof).
bool read_exact(std::istream& in, std::uint8_t* out, std::size_t n) {
  in.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

bool read_u8(std::istream& in, std::uint8_t& out) {
  return read_exact(in, &out, 1);
}

bool read_u16le(std::istream& in, std::uint16_t& out) {
  std::uint8_t b[2];
  if (!read_exact(in, b, 2)) return false;
  out = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  return true;
}

bool read_u32le(std::istream& in, std::uint32_t& out) {
  std::uint8_t b[4];
  if (!read_exact(in, b, 4)) return false;
  out = static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
        (static_cast<std::uint32_t>(b[2]) << 16) |
        (static_cast<std::uint32_t>(b[3]) << 24);
  return true;
}

/// Stream-side varint (same encoding as ByteReader::varint).
bool read_varint(std::istream& in, std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t b = 0;
    if (!read_u8(in, b)) return false;
    if (shift == 63 && (b & 0xfe) != 0) return false;  // overlong
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

std::uint64_t varint_size(std::uint64_t v) {
  std::uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

TraceReader::TraceReader(std::istream& in) { open(in); }

TraceReader::TraceReader(const std::string& path)
    : owned_in_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*owned_in_) {
    error_ = TraceError::kIoError;
    error_message_ = "cannot open " + path;
    done_ = true;
    return;
  }
  open(*owned_in_);
}

void TraceReader::open(std::istream& in) {
  in_ = &in;
  std::uint32_t magic = 0;
  if (!read_u32le(in, magic)) {
    error_ = TraceError::kEmpty;
    error_message_ = "empty or truncated prologue";
    done_ = true;
    return;
  }
  if (magic != kTraceMagic) {
    error_ = TraceError::kBadMagic;
    error_message_ = "not a trace file (bad magic)";
    done_ = true;
    return;
  }
  std::uint16_t version = 0;
  std::uint16_t reserved = 0;
  std::uint32_t header_len = 0;
  if (!read_u16le(in, version) || !read_u16le(in, reserved) ||
      !read_u32le(in, header_len)) {
    error_ = TraceError::kCorruptHeader;
    error_message_ = "truncated prologue";
    done_ = true;
    return;
  }
  if (version != kTraceVersion) {
    error_ = TraceError::kBadVersion;
    error_message_ =
        "unsupported trace version " + std::to_string(version) +
        " (this reader understands version " + std::to_string(kTraceVersion) + ")";
    done_ = true;
    return;
  }
  if (header_len > kMaxHeaderBytes) {
    error_ = TraceError::kCorruptHeader;
    error_message_ = "header length out of range";
    done_ = true;
    return;
  }
  util::Bytes body(header_len);
  std::uint32_t stored_crc = 0;
  if (!read_exact(in, body.data(), body.size()) || !read_u32le(in, stored_crc)) {
    error_ = TraceError::kCorruptHeader;
    error_message_ = "truncated header";
    done_ = true;
    return;
  }
  if (util::crc32(body) != stored_crc) {
    error_ = TraceError::kCorruptHeader;
    error_message_ = "header checksum mismatch";
    done_ = true;
    return;
  }
  try {
    util::ByteReader r(body);
    header_ = decode_header_body(r);
  } catch (const util::BufferUnderflow&) {
    error_ = TraceError::kCorruptHeader;
    error_message_ = "malformed header body";
    done_ = true;
    return;
  }
  stats_.bytes_read = 12 + static_cast<std::uint64_t>(header_len) + 4;
}

bool TraceReader::next(crawler::ResponseRecord& out) {
  if (block_pos_ == block_size_) {
    if (done_) return false;
    if (!advance_block()) {
      done_ = true;
      return false;
    }
  }
  // Hand the record out by swap: the caller's previous record goes back
  // into the slot, and its strings' storage is reused by the next decode.
  std::swap(out, block_records_[block_pos_++]);
  return true;
}

bool TraceReader::advance_block() {
  auto& metrics = obs::bound_metrics<ReaderMetrics>();
  // Loop until a decodable records block is in hand (summary and unknown
  // blocks are consumed along the way) or the stream ends.
  for (;;) {
    std::uint8_t kind = 0;
    if (!read_u8(*in_, kind)) return false;  // clean end of stream
    std::uint64_t payload_len = 0;
    std::uint32_t stored_crc = 0;
    if (!read_varint(*in_, payload_len) || payload_len > kMaxBlockBytes ||
        !read_u32le(*in_, stored_crc)) {
      stats_.truncated_tail = true;
      return false;
    }
    payload_.resize(payload_len);
    if (!read_exact(*in_, payload_.data(), payload_.size())) {
      stats_.truncated_tail = true;
      return false;
    }
    stats_.bytes_read += 1 + varint_size(payload_len) + 4 + payload_len;
    if (util::crc32(payload_, util::crc32({&kind, 1})) != stored_crc) {
      // Damaged block: its length prefix got us past it, keep going.
      ++stats_.blocks_corrupt;
      metrics.corrupt.add();
      continue;
    }
    ++stats_.blocks_read;
    metrics.blocks.add();
    try {
      util::ByteReader r(payload_);
      switch (static_cast<BlockKind>(kind)) {
        case BlockKind::kRecords: {
          // Decode over the slots in place. A slot is added only when the
          // block outgrows every earlier one, and only just before its
          // record decodes, so a bogus count cannot allocate past the
          // payload it fails to fill.
          const std::uint64_t count = r.varint();
          block_pos_ = 0;
          for (block_size_ = 0; block_size_ < count; ++block_size_) {
            if (block_size_ == block_records_.size()) block_records_.emplace_back();
            decode_record(r, block_records_[block_size_]);
          }
          if (!r.empty()) throw util::BufferUnderflow{};
          if (block_size_ == 0) continue;
          stats_.records_read += block_size_;
          metrics.records.add(block_size_);
          return true;
        }
        case BlockKind::kSummary: {
          summary_ = decode_summary(r);
          if (!r.empty()) throw util::BufferUnderflow{};
          continue;
        }
        case BlockKind::kSegmentIndex: {
          segment_index_ = decode_segment_index(r);
          if (!r.empty()) throw util::BufferUnderflow{};
          continue;
        }
        default:
          // Forward compatibility: unknown kinds pass the CRC but carry
          // nothing this reader understands.
          ++stats_.blocks_skipped;
          continue;
      }
    } catch (const util::BufferUnderflow&) {
      // CRC-valid but undecodable payload (e.g. written by a buggy or
      // newer encoder): treat like a damaged block. A records block is
      // all or nothing, so drop the slots it decoded before failing;
      // otherwise a failed last block would hand them out after the end.
      block_pos_ = block_size_ = 0;
      --stats_.blocks_read;
      ++stats_.blocks_corrupt;
      metrics.corrupt.add();
      continue;
    }
  }
}

TraceData read_trace_file(const std::string& path) {
  OBS_SPAN("trace.read_file");
  TraceData data;
  TraceReader reader(path);
  if (!reader.ok()) {
    data.error = reader.error();
    data.error_message = reader.error_message();
    return data;
  }
  data.header = reader.header();
  crawler::ResponseRecord rec;
  while (reader.next(rec)) data.records.push_back(std::move(rec));
  data.summary = reader.summary();
  data.stats = reader.stats();
  return data;
}

}  // namespace p2p::trace
