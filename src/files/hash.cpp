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
// MD5 round functions (RFC 1321 section 3.4), in forms without branches.
struct Md5F {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return d ^ (b & (c ^ d));
  }
};
struct Md5G {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return c ^ (d & (b ^ c));
  }
};
struct Md5H {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return b ^ c ^ d;
  }
};
struct Md5I {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c, std::uint32_t d) const {
    return c ^ (b | ~d);
  }
};

/// One step [abcd k s i] of RFC 1321: a = b + ((a + F(b,c,d) + X[k] + T[i]) <<< s).
template <typename F>
void md5_step(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
              std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl32(a + F{}(b, c, d) + x + t, s);
}
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
  // The 64 steps written out as in RFC 1321: literal message indices,
  // shifts and sine-derived constants, registers renamed instead of moved.
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  // Round 1.
  md5_step<Md5F>(a, b, c, d, m[0], 7, 0xd76aa478);
  md5_step<Md5F>(d, a, b, c, m[1], 12, 0xe8c7b756);
  md5_step<Md5F>(c, d, a, b, m[2], 17, 0x242070db);
  md5_step<Md5F>(b, c, d, a, m[3], 22, 0xc1bdceee);
  md5_step<Md5F>(a, b, c, d, m[4], 7, 0xf57c0faf);
  md5_step<Md5F>(d, a, b, c, m[5], 12, 0x4787c62a);
  md5_step<Md5F>(c, d, a, b, m[6], 17, 0xa8304613);
  md5_step<Md5F>(b, c, d, a, m[7], 22, 0xfd469501);
  md5_step<Md5F>(a, b, c, d, m[8], 7, 0x698098d8);
  md5_step<Md5F>(d, a, b, c, m[9], 12, 0x8b44f7af);
  md5_step<Md5F>(c, d, a, b, m[10], 17, 0xffff5bb1);
  md5_step<Md5F>(b, c, d, a, m[11], 22, 0x895cd7be);
  md5_step<Md5F>(a, b, c, d, m[12], 7, 0x6b901122);
  md5_step<Md5F>(d, a, b, c, m[13], 12, 0xfd987193);
  md5_step<Md5F>(c, d, a, b, m[14], 17, 0xa679438e);
  md5_step<Md5F>(b, c, d, a, m[15], 22, 0x49b40821);
  // Round 2.
  md5_step<Md5G>(a, b, c, d, m[1], 5, 0xf61e2562);
  md5_step<Md5G>(d, a, b, c, m[6], 9, 0xc040b340);
  md5_step<Md5G>(c, d, a, b, m[11], 14, 0x265e5a51);
  md5_step<Md5G>(b, c, d, a, m[0], 20, 0xe9b6c7aa);
  md5_step<Md5G>(a, b, c, d, m[5], 5, 0xd62f105d);
  md5_step<Md5G>(d, a, b, c, m[10], 9, 0x02441453);
  md5_step<Md5G>(c, d, a, b, m[15], 14, 0xd8a1e681);
  md5_step<Md5G>(b, c, d, a, m[4], 20, 0xe7d3fbc8);
  md5_step<Md5G>(a, b, c, d, m[9], 5, 0x21e1cde6);
  md5_step<Md5G>(d, a, b, c, m[14], 9, 0xc33707d6);
  md5_step<Md5G>(c, d, a, b, m[3], 14, 0xf4d50d87);
  md5_step<Md5G>(b, c, d, a, m[8], 20, 0x455a14ed);
  md5_step<Md5G>(a, b, c, d, m[13], 5, 0xa9e3e905);
  md5_step<Md5G>(d, a, b, c, m[2], 9, 0xfcefa3f8);
  md5_step<Md5G>(c, d, a, b, m[7], 14, 0x676f02d9);
  md5_step<Md5G>(b, c, d, a, m[12], 20, 0x8d2a4c8a);
  // Round 3.
  md5_step<Md5H>(a, b, c, d, m[5], 4, 0xfffa3942);
  md5_step<Md5H>(d, a, b, c, m[8], 11, 0x8771f681);
  md5_step<Md5H>(c, d, a, b, m[11], 16, 0x6d9d6122);
  md5_step<Md5H>(b, c, d, a, m[14], 23, 0xfde5380c);
  md5_step<Md5H>(a, b, c, d, m[1], 4, 0xa4beea44);
  md5_step<Md5H>(d, a, b, c, m[4], 11, 0x4bdecfa9);
  md5_step<Md5H>(c, d, a, b, m[7], 16, 0xf6bb4b60);
  md5_step<Md5H>(b, c, d, a, m[10], 23, 0xbebfbc70);
  md5_step<Md5H>(a, b, c, d, m[13], 4, 0x289b7ec6);
  md5_step<Md5H>(d, a, b, c, m[0], 11, 0xeaa127fa);
  md5_step<Md5H>(c, d, a, b, m[3], 16, 0xd4ef3085);
  md5_step<Md5H>(b, c, d, a, m[6], 23, 0x04881d05);
  md5_step<Md5H>(a, b, c, d, m[9], 4, 0xd9d4d039);
  md5_step<Md5H>(d, a, b, c, m[12], 11, 0xe6db99e5);
  md5_step<Md5H>(c, d, a, b, m[15], 16, 0x1fa27cf8);
  md5_step<Md5H>(b, c, d, a, m[2], 23, 0xc4ac5665);
  // Round 4.
  md5_step<Md5I>(a, b, c, d, m[0], 6, 0xf4292244);
  md5_step<Md5I>(d, a, b, c, m[7], 10, 0x432aff97);
  md5_step<Md5I>(c, d, a, b, m[14], 15, 0xab9423a7);
  md5_step<Md5I>(b, c, d, a, m[5], 21, 0xfc93a039);
  md5_step<Md5I>(a, b, c, d, m[12], 6, 0x655b59c3);
  md5_step<Md5I>(d, a, b, c, m[3], 10, 0x8f0ccc92);
  md5_step<Md5I>(c, d, a, b, m[10], 15, 0xffeff47d);
  md5_step<Md5I>(b, c, d, a, m[1], 21, 0x85845dd1);
  md5_step<Md5I>(a, b, c, d, m[8], 6, 0x6fa87e4f);
  md5_step<Md5I>(d, a, b, c, m[15], 10, 0xfe2ce6e0);
  md5_step<Md5I>(c, d, a, b, m[6], 15, 0xa3014314);
  md5_step<Md5I>(b, c, d, a, m[13], 21, 0x4e0811a1);
  md5_step<Md5I>(a, b, c, d, m[4], 6, 0xf7537e82);
  md5_step<Md5I>(d, a, b, c, m[11], 10, 0xbd3af235);
  md5_step<Md5I>(c, d, a, b, m[2], 15, 0x2ad7d2bb);
  md5_step<Md5I>(b, c, d, a, m[9], 21, 0xeb86d391);
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
