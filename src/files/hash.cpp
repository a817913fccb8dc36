#include "files/hash.h"

#include <bit>
#include <cstring>

namespace p2p::files {

namespace {
std::uint32_t rotl32(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::little) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

// SHA-1 round functions (FIPS 180-1), in forms without branches.
struct Sha1Choose {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return d ^ (b & (c ^ d));
  }
};
struct Sha1Parity {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return b ^ c ^ d;
  }
};
struct Sha1Majority {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return (b & c) | (d & (b | c));
  }
};

/// Schedule word t >= 16, computed into the 16-word ring w in place of w[t - 16].
std::uint32_t sha1_schedule(std::uint32_t* w, int t) {
  std::uint32_t x = rotl32(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15], 1);
  w[t & 15] = x;
  return x;
}

/// One round that leaves its result in `e` and rotates `b`; the caller
/// renames the five registers instead of shifting them.
template <typename F>
void sha1_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
                std::uint32_t& e, std::uint32_t k, std::uint32_t wt) {
  e += rotl32(a, 5) + F{}(b, c, d) + k + wt;
  b = rotl32(b, 30);
}

/// Rounds t0 .. t0+19, which share one round function and constant.
template <typename F>
void sha1_group(std::uint32_t (&r)[5], std::uint32_t* w, int t0, std::uint32_t k) {
  auto& [a, b, c, d, e] = r;
  auto word = [w](int t) { return t < 16 ? w[t] : sha1_schedule(w, t); };
  for (int t = t0; t < t0 + 20; t += 5) {
    sha1_round<F>(a, b, c, d, e, k, word(t));
    sha1_round<F>(e, a, b, c, d, k, word(t + 1));
    sha1_round<F>(d, e, a, b, c, k, word(t + 2));
    sha1_round<F>(c, d, e, a, b, k, word(t + 3));
    sha1_round<F>(b, c, d, e, a, k, word(t + 4));
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

Sha1::Sha1() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t r[5] = {h_[0], h_[1], h_[2], h_[3], h_[4]};
  sha1_group<Sha1Choose>(r, w, 0, 0x5A827999u);
  sha1_group<Sha1Parity>(r, w, 20, 0x6ED9EBA1u);
  sha1_group<Sha1Majority>(r, w, 40, 0x8F1BBCDCu);
  sha1_group<Sha1Parity>(r, w, 60, 0xCA62C1D6u);
  for (int i = 0; i < 5; ++i) h_[i] += r[i];
}

void Sha1::update(std::span<const std::uint8_t> data) {
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest20 Sha1::finish() {
  std::uint64_t bit_length = length_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update({pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
  // update() adjusts length_, harmless now.
  update({len_bytes, 8});
  Digest20 out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MD5
// ---------------------------------------------------------------------------

namespace {
// Per-round shift amounts and sine-derived constants from RFC 1321.
constexpr int kMd5Shift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                               5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                               4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                               6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
constexpr std::uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};
}  // namespace

Md5::Md5() {
  state_[0] = 0x67452301u;
  state_[1] = 0xefcdab89u;
  state_[2] = 0x98badcfeu;
  state_[3] = 0x10325476u;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = std::uint32_t{block[i * 4]} | (std::uint32_t{block[i * 4 + 1]} << 8) |
           (std::uint32_t{block[i * 4 + 2]} << 16) | (std::uint32_t{block[i * 4 + 3]} << 24);
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f = f + a + kMd5K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b = b + rotl32(f, kMd5Shift[i]);
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest16 Md5::finish() {
  std::uint64_t bit_length = length_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update({pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  update({len_bytes, 8});
  Digest16 out;
  for (int i = 0; i < 4; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i]);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, as used by ZIP)
// ---------------------------------------------------------------------------

namespace {
struct Crc32Table {
  std::uint32_t t[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
  }
};
const Crc32Table kCrcTable;
}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = kCrcTable.t[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Digest20 sha1(std::span<const std::uint8_t> data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Digest16 md5(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string hex(const Digest20& d) { return util::to_hex(d); }
std::string hex(const Digest16& d) { return util::to_hex(d); }

}  // namespace p2p::files
