#include "gnutella/qrp.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstring>
#include <stdexcept>

#include "util/strings.h"

namespace p2p::gnutella {

std::uint32_t qrp_hash(std::string_view keyword, unsigned bits) {
  if (bits == 0 || bits > 31) throw std::invalid_argument("qrp_hash: bad bits");
  std::uint32_t xor_acc = 0;
  unsigned j = 0;
  for (char c : keyword) {
    auto lower = static_cast<std::uint32_t>(
        std::tolower(static_cast<unsigned char>(c)) & 0xFF);
    xor_acc ^= lower << (j * 8);
    j = (j + 1) % 4;
  }
  std::uint64_t prod = static_cast<std::uint64_t>(xor_acc) * 0x4F1BBCDCull;
  return static_cast<std::uint32_t>((prod & 0xFFFFFFFFull) >> (32 - bits));
}

namespace {

// The PATCH codec moves 8 slots per step: one byte of a table word against
// 8 bytes of payload. Payload byte j of a step is slot 8*step + j, which is
// bit j of that table byte.

constexpr std::size_t word_count(unsigned bits) {
  return std::max<std::size_t>(1, (std::size_t{1} << bits) / 64);
}

/// 8-slot steps per word: 8, except in a table smaller than one word.
constexpr std::size_t steps_per_word(unsigned bits) {
  return std::min<std::size_t>(8, (std::size_t{1} << bits) / 8);
}

/// kSpread[b] is the 8 patch bytes for table byte b: byte j is bit j of b.
constexpr auto kSpread = [] {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned j = 0; j < 8; ++j) t[b][j] = static_cast<std::uint8_t>((b >> j) & 1u);
  }
  return t;
}();

/// Bit j of the result is set iff patch byte p[j] is non-zero.
std::uint8_t gather_nonzero(const std::uint8_t* p) {
  std::uint64_t v = 0;  // little-endian load: p[j] lands in bits 8j..8j+7
  for (unsigned j = 0; j < 8; ++j) v |= std::uint64_t{p[j]} << (8 * j);
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  // Per byte: the high bit ends up set iff the byte is non-zero (adding 0x7F
  // to the low 7 bits never carries across bytes).
  std::uint64_t high = (((v & kLow7) + kLow7) | v) & ~kLow7;
  // Move byte j's high bit to bit 56 + j; the products land on distinct
  // bits, so nothing carries.
  return static_cast<std::uint8_t>(((high >> 7) * 0x0102040810204080ull) >> 56);
}

}  // namespace

QueryRouteTable::QueryRouteTable(unsigned table_bits) : bits_(table_bits) {
  if (bits_ < 4 || bits_ > 24) {
    throw std::invalid_argument("QueryRouteTable: table_bits out of range");
  }
  words_.assign(word_count(bits_), 0);
}

void QueryRouteTable::clear() { std::fill(words_.begin(), words_.end(), 0); }

void QueryRouteTable::fill_all() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  if (slot_count() < 64) words_[0] = (std::uint64_t{1} << slot_count()) - 1;
}

void QueryRouteTable::add_keywords(std::string_view text) {
  for (const auto& kw : util::keywords(text)) set(qrp_hash(kw, bits_));
}

QueryHashes hash_query(std::string_view query, unsigned bits) {
  QueryHashes out;
  out.bits = bits;
  auto kws = util::keywords(query);
  out.no_keywords = kws.empty();
  out.slots.reserve(kws.size());
  for (const auto& kw : kws) out.slots.push_back(qrp_hash(kw, bits));
  return out;
}

bool QueryRouteTable::matches_hashed(const QueryHashes& q) const {
  if (q.no_keywords) return false;
  for (std::uint32_t slot : q.slots) {
    if (!test(slot)) return false;
  }
  return true;
}

bool QueryRouteTable::matches(std::string_view query) const {
  auto kws = util::keywords(query);
  if (kws.empty()) return false;
  for (const auto& kw : kws) {
    if (!test(qrp_hash(kw, bits_))) return false;
  }
  return true;
}

double QueryRouteTable::fill_ratio() const {
  std::size_t set = 0;
  for (std::uint64_t w : words_) set += static_cast<std::size_t>(std::popcount(w));
  return static_cast<double>(set) / static_cast<double>(slot_count());
}

util::Bytes QueryRouteTable::to_patch_bytes() const {
  util::Bytes out(slot_count());
  const std::size_t steps = steps_per_word(bits_);
  std::uint8_t* p = out.data();
  for (std::uint64_t word : words_) {
    for (std::size_t j = 0; j < steps; ++j, p += 8) {
      std::memcpy(p, kSpread[static_cast<std::uint8_t>(word >> (8 * j))].data(), 8);
    }
  }
  return out;
}

bool QueryRouteTable::from_patch_bytes(const util::Bytes& bytes) {
  std::size_t n = bytes.size();
  if (n < 16 || (n & (n - 1)) != 0) return false;
  auto bits = static_cast<unsigned>(std::countr_zero(n));
  if (bits > 24) return false;
  bits_ = bits;
  words_.resize(word_count(bits_));
  const std::size_t steps = steps_per_word(bits_);
  const std::uint8_t* p = bytes.data();
  for (std::uint64_t& word : words_) {
    word = 0;
    for (std::size_t j = 0; j < steps; ++j, p += 8) {
      word |= std::uint64_t{gather_nonzero(p)} << (8 * j);
    }
  }
  return true;
}

}  // namespace p2p::gnutella
