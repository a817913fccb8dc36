// Byte-buffer primitives used by every wire-format module.
//
// Gnutella 0.6 is a little-endian binary protocol; OpenFT uses big-endian
// (network order) framing. ByteWriter/ByteReader therefore expose both
// orders explicitly; callers never do manual shifting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace p2p::util {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view of wire bytes. Parser entry points take this
/// so owned Bytes, shared util::Payload buffers, and sub-spans all flow in
/// without a copy.
using ByteView = std::span<const std::uint8_t>;

/// Error thrown when a reader runs past the end of its buffer.
/// Protocol handlers catch this to drop malformed messages.
class BufferUnderflow : public std::runtime_error {
 public:
  BufferUnderflow() : std::runtime_error("buffer underflow") {}
};

/// Append-only serializer. Grows an owned Bytes vector; every multi-byte
/// append is one range insert, so it costs one capacity check.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void u64le(std::uint64_t v);
  void u16be(std::uint16_t v);
  void u32be(std::uint32_t v);

  /// Unsigned LEB128: low 7 bits first, high bit = continuation. At most
  /// 10 bytes for a full uint64. The trace codec's integer encoding.
  void varint(std::uint64_t v);

  /// Raw bytes, no length prefix.
  void bytes(std::span<const std::uint8_t> data);
  /// String bytes, no terminator.
  void str(std::string_view s);
  /// String bytes followed by a single NUL (Gnutella query criteria).
  void cstr(std::string_view s);
  /// Varint length prefix followed by the string bytes (trace codec
  /// strings; study-cache records use the same encoding).
  void lp_str(std::string_view s);
  /// Lowercase hex digits of `data`, the same text to_hex returns.
  void hex(std::span<const std::uint8_t> data);

  /// Overwrite bytes already written at `pos` (a length field reserved
  /// before its body was encoded).
  void patch_u32le(std::size_t pos, std::uint32_t v);
  void patch_u16be(std::size_t pos, std::uint16_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& data() const& { return buf_; }
  /// Drop the contents but keep the capacity, so a reused writer stops
  /// reallocating once it has seen its largest payload.
  void clear() { buf_.clear(); }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  void append(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }

  Bytes buf_;
};

/// Non-owning sequential deserializer over a byte span.
/// All reads throw BufferUnderflow past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16le();
  [[nodiscard]] std::uint32_t u32le();
  [[nodiscard]] std::uint64_t u64le();
  [[nodiscard]] std::uint16_t u16be();
  [[nodiscard]] std::uint32_t u32be();

  /// Unsigned LEB128 (see ByteWriter::varint). Throws BufferUnderflow on a
  /// truncated or overlong (> 10 byte / > 64 bit) encoding, so malformed
  /// input fails like any other short read.
  [[nodiscard]] std::uint64_t varint();

  /// Read exactly n bytes.
  [[nodiscard]] Bytes bytes(std::size_t n);
  /// Read exactly out.size() bytes straight into `out` (a GUID or digest).
  void read_into(std::span<std::uint8_t> out);
  /// Read up to and excluding the next NUL; consumes the NUL.
  [[nodiscard]] std::string cstr();
  /// cstr without the copy: a view into the reader's buffer, valid while
  /// that buffer is.
  [[nodiscard]] std::string_view cstr_view();
  /// Read exactly n bytes as a string.
  [[nodiscard]] std::string str(std::size_t n);
  /// Inverse of ByteWriter::lp_str (varint length + bytes).
  [[nodiscard]] std::string lp_str();
  /// lp_str without the copy: a view of the string's bytes inside the
  /// reader's buffer, valid while that buffer is. Assigning it to an
  /// existing std::string reuses that string's storage.
  [[nodiscard]] std::string_view lp_view();

  void skip(std::size_t n);
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Wire bytes as text (no copy), and text as wire bytes.
[[nodiscard]] inline std::string_view as_view(ByteView bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}
[[nodiscard]] inline Bytes text_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

/// Hex encoding of a byte span, lowercase, no separators.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

/// Inverse of to_hex. Returns nullopt on odd length or non-hex chars.
[[nodiscard]] std::optional<Bytes> from_hex(std::string_view hex);

/// from_hex into a fixed-size buffer (a GUID or digest). True iff `hex` is
/// exactly 2 * out.size() hex digits; `out` is left untouched otherwise.
[[nodiscard]] bool from_hex_into(std::string_view hex, std::span<std::uint8_t> out);

/// CRC-32 (IEEE 802.3, the zlib polynomial), the one checksum of the trace
/// store and the ZIP container. `seed` chains incremental computations:
/// crc32(b, crc32(a)) == crc32(a + b). Slicing-by-8: eight bytes per step
/// through eight 256-entry tables, then a byte-wise tail.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);

/// Tagged length-prefixed frame, the OpenFT and KAD packet framing:
/// [u16be payload length][u16be tag][payload]. The length covers the
/// payload only. write_tagged_frame_be16 appends one frame to `w`: it
/// reserves the length, writes the tag, lets `body` encode the payload in
/// place and then patches the length, so the payload is never copied.
template <typename Body>
void write_tagged_frame_be16(ByteWriter& w, std::uint16_t tag, Body&& body) {
  const std::size_t start = w.size();
  w.u16be(0);
  w.u16be(tag);
  body(w);
  w.patch_u16be(start, static_cast<std::uint16_t>(w.size() - start - 4));
}

/// One frame around an already-encoded payload.
[[nodiscard]] Bytes tagged_frame_be16(std::uint16_t tag,
                                      std::span<const std::uint8_t> payload);

struct TaggedFrame {
  std::uint16_t tag = 0;
  std::span<const std::uint8_t> payload;
};

/// Strict parse of a tagged_frame_be16 wire: the declared length must cover
/// the remaining bytes exactly. Returns nullopt on any mismatch.
[[nodiscard]] std::optional<TaggedFrame> parse_tagged_frame_be16(
    std::span<const std::uint8_t> wire);

}  // namespace p2p::util
