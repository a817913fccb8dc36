#include "util/bytes.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace p2p::util {

void ByteWriter::u16le(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8)};
  append(b, sizeof(b));
}

void ByteWriter::u32le(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(b, sizeof(b));
}

void ByteWriter::u64le(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(b, sizeof(b));
}

void ByteWriter::u16be(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  append(b, sizeof(b));
}

void ByteWriter::u32be(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  append(b, sizeof(b));
}

void ByteWriter::patch_u32le(std::size_t pos, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) buf_.at(pos + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

void ByteWriter::patch_u16be(std::size_t pos, std::uint16_t v) {
  buf_.at(pos) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(pos + 1) = static_cast<std::uint8_t>(v);
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  append(data.data(), data.size());
}

void ByteWriter::str(std::string_view s) {
  append(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void ByteWriter::cstr(std::string_view s) {
  str(s);
  buf_.push_back(0);
}

void ByteWriter::varint(std::uint64_t v) {
  std::uint8_t b[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    b[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  b[n++] = static_cast<std::uint8_t>(v);
  append(b, n);
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

void ByteWriter::hex(std::span<const std::uint8_t> data) {
  // Whole chunks through a stack buffer: one insert per 32 input bytes.
  std::uint8_t chunk[64];
  while (!data.empty()) {
    const std::size_t n = std::min<std::size_t>(data.size(), sizeof(chunk) / 2);
    for (std::size_t i = 0; i < n; ++i) {
      chunk[2 * i] = static_cast<std::uint8_t>(kHexDigits[data[i] >> 4]);
      chunk[2 * i + 1] = static_cast<std::uint8_t>(kHexDigits[data[i] & 0xf]);
    }
    append(chunk, 2 * n);
    data = data.subspan(n);
  }
}

void ByteWriter::lp_str(std::string_view s) {
  varint(s.size());
  str(s);
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) throw BufferUnderflow{};
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16le() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32le() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64le() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

std::uint16_t ByteReader::u16be() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32be() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    std::uint8_t b = u8();
    // The 10th byte can only contribute the top bit of the value.
    if (shift == 63 && (b & 0xfe) != 0) throw BufferUnderflow{};
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw BufferUnderflow{};
}

std::string ByteReader::lp_str() { return std::string(lp_view()); }

std::string_view ByteReader::lp_view() {
  std::uint64_t n = varint();
  if (n > remaining()) throw BufferUnderflow{};
  std::string_view out(reinterpret_cast<const char*>(data_.data() + pos_),
                       static_cast<std::size_t>(n));
  pos_ += out.size();
  return out;
}

void ByteReader::read_into(std::span<std::uint8_t> out) {
  require(out.size());
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

Bytes ByteReader::bytes(std::size_t n) {
  require(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string ByteReader::cstr() { return std::string(cstr_view()); }

std::string_view ByteReader::cstr_view() {
  if (empty()) throw BufferUnderflow{};
  const auto* begin = data_.data() + pos_;
  const auto* nul = static_cast<const std::uint8_t*>(std::memchr(begin, 0, remaining()));
  if (nul == nullptr) throw BufferUnderflow{};
  std::string_view out(reinterpret_cast<const char*>(begin),
                       static_cast<std::size_t>(nul - begin));
  pos_ += out.size() + 1;
  return out;
}

std::string ByteReader::str(std::size_t n) {
  require(n);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out(hex.size() / 2);
  if (!from_hex_into(hex, out)) return std::nullopt;
  return out;
}

bool from_hex_into(std::string_view hex, std::span<std::uint8_t> out) {
  if (hex.size() != 2 * out.size()) return false;
  for (char c : hex) {
    if (hex_val(c) < 0) return false;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((hex_val(hex[2 * i]) << 4) | hex_val(hex[2 * i + 1]));
  }
  return true;
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  // CRC-32/IEEE (reflected 0xEDB88320), slicing-by-8. table[0] is the
  // classic byte-at-a-time table; table[k][i] is the CRC of byte i followed
  // by k zero bytes, so one step folds eight message bytes with eight
  // independent lookups. Built on first use.
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0u);
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian words built from bytes, so the host's byte order never
    // matters.
    const std::uint32_t lo = crc ^ (std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                                    (std::uint32_t{p[2]} << 16) |
                                    (std::uint32_t{p[3]} << 24));
    const std::uint32_t hi = std::uint32_t{p[4]} | (std::uint32_t{p[5]} << 8) |
                             (std::uint32_t{p[6]} << 16) | (std::uint32_t{p[7]} << 24);
    crc = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff] ^
          table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24] ^ table[3][hi & 0xff] ^
          table[2][(hi >> 8) & 0xff] ^ table[1][(hi >> 16) & 0xff] ^
          table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ table[0][(crc ^ *p) & 0xff];
  return ~crc;
}

Bytes tagged_frame_be16(std::uint16_t tag, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  write_tagged_frame_be16(w, tag, [&](ByteWriter& body) { body.bytes(payload); });
  return std::move(w).take();
}

std::optional<TaggedFrame> parse_tagged_frame_be16(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < 4) return std::nullopt;
  std::uint16_t length = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(wire[0]) << 8) | wire[1]);
  if (length != wire.size() - 4) return std::nullopt;
  TaggedFrame frame;
  frame.tag = static_cast<std::uint16_t>((static_cast<std::uint16_t>(wire[2]) << 8) |
                                         wire[3]);
  frame.payload = wire.subspan(4);
  return frame;
}

}  // namespace p2p::util
