// Query Routing Protocol (QRP) tables.
//
// Leaves summarize their shared keywords into a hash bitmap and ship it to
// their ultrapeers; an ultrapeer forwards a query to a leaf only if every
// query keyword hashes to a set slot. This is the mechanism that keeps
// last-hop query traffic proportional to matching leaves — and the thing
// a query-echoing worm defeats by advertising an all-ones table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace p2p::gnutella {

/// The standard QRP keyword hash (GDF spec): pack the lowercased bytes into
/// little-endian 32-bit words XORed together, multiply by 0x4F1BBCDC, and
/// keep the top `bits` bits of the low 32-bit product.
[[nodiscard]] std::uint32_t qrp_hash(std::string_view keyword, unsigned bits);

/// A query's keywords tokenized and QRP-hashed once for one table size, so
/// an ultrapeer can gate the same query against many leaf tables without
/// re-parsing the criteria string per leaf (the last-hop hot path).
struct QueryHashes {
  unsigned bits = 0;  // 0 = not yet computed
  bool no_keywords = true;
  std::vector<std::uint32_t> slots;
};
[[nodiscard]] QueryHashes hash_query(std::string_view query, unsigned bits);

/// A QRP table of 2^table_bits one-bit slots, packed 64 to a word: slot i
/// is bit (i % 64) of word i / 64. Bits past slot_count() (tables smaller
/// than one word) are always zero, so a popcount is the number of set slots.
class QueryRouteTable {
 public:
  /// table_bits in [4, 24]; table has 2^table_bits slots.
  explicit QueryRouteTable(unsigned table_bits = 13);

  [[nodiscard]] unsigned table_bits() const { return bits_; }
  [[nodiscard]] std::size_t slot_count() const { return std::size_t{1} << bits_; }

  /// Slot access; `slot` must be below slot_count().
  [[nodiscard]] bool test(std::size_t slot) const {
    return ((words_[slot >> 6] >> (slot & 63)) & 1u) != 0;
  }
  void set(std::size_t slot) { words_[slot >> 6] |= std::uint64_t{1} << (slot & 63); }

  void clear();
  /// Mark all slots present (what a worm that wants every query would send).
  void fill_all();

  /// Insert every keyword of a filename/title.
  void add_keywords(std::string_view text);

  /// Would this table admit the query? (every query keyword present).
  [[nodiscard]] bool matches(std::string_view query) const;

  /// Same decision from precomputed hashes; `q.bits` must equal
  /// table_bits(). Byte-identical to matches() on the same query.
  [[nodiscard]] bool matches_hashed(const QueryHashes& q) const;

  /// Fraction of slots set — used by ultrapeers to spot degenerate tables.
  [[nodiscard]] double fill_ratio() const;

  /// Serialize slots as one byte per slot (PATCH payload): 1 for a set
  /// slot, 0 otherwise.
  [[nodiscard]] util::Bytes to_patch_bytes() const;
  /// Rebuild from PATCH bytes, any non-zero byte being a set slot; the
  /// table takes the patch's size. Returns false, leaving the table
  /// unchanged, if the size is not a power of two in the supported range.
  bool from_patch_bytes(const util::Bytes& bytes);

  bool operator==(const QueryRouteTable&) const = default;

 private:
  unsigned bits_;
  std::vector<std::uint64_t> words_;
};

}  // namespace p2p::gnutella
