// A servent's shared-file index: stable file indices (used in QueryHit and
// download URLs), keyword matching, and QRP table construction.
//
// Matching is interned: every distinct keyword gets a small integer id from
// a TokenInterner (one per population, shared by every peer's index), each
// distinct name is tokenized once per population into a sorted id set, and
// match() tokenizes the query once and runs a sorted-subset test per file.
// build_qrt() never tokenizes: the interner keeps each token's QRP hash, so
// a table is an OR of slots over the index's token ids.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "files/file.h"
#include "gnutella/qrp.h"

namespace p2p::gnutella {

/// Keyword -> dense id table shared across every shared-file index of a
/// population ("the corpus"). Interning happens at population-build time
/// (single-threaded); once the population is built the interner is
/// read-only, so concurrent match() and build_qrt() calls from
/// sharded-engine workers are safe. Token id values are an internal
/// detail — nothing observable depends on them.
class TokenInterner {
 public:
  /// Sorted unique ids for every keyword of `text` (a filename), interning
  /// tokens not seen before. Tokenization matches util::keywords: split on
  /// non-alphanumeric, lowercase, drop tokens shorter than 2 chars. Each
  /// distinct text is tokenized once; later calls return the memoized ids
  /// (the reference stays valid as long as the interner).
  const std::vector<std::uint32_t>& intern_keywords(std::string_view text);

  /// Sorted unique ids for a query's keywords; nullopt when the query has
  /// no keywords or contains a keyword never interned — either way no
  /// shared file can match. Read-only.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> lookup_keywords(
      std::string_view text) const;

  /// QRP slot of token `id` in a table of 2^bits slots: qrp_hash(token,
  /// bits), taken from the full-width hash stored when the token was
  /// interned.
  [[nodiscard]] std::uint32_t qrp_slot(std::uint32_t id, unsigned bits) const {
    return qrp_hashes_[id] >> (kHashBits - bits);
  }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  /// Widest table qrp_hash supports; a narrower table's hash is a shift of it.
  static constexpr unsigned kHashBits = 31;

  /// Lets names_ be probed with a string_view, without building a string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::uint32_t> qrp_hashes_;  // qrp_hash(token, kHashBits) by id
  /// text -> its sorted unique ids
  std::unordered_map<std::string, std::vector<std::uint32_t>, NameHash, std::equal_to<>>
      names_;
};

class SharedFileIndex {
 public:
  SharedFileIndex() = default;
  /// Share one interner across every index of a population so each distinct
  /// name is tokenized once corpus-wide.
  explicit SharedFileIndex(std::shared_ptr<TokenInterner> interner)
      : interner_(std::move(interner)) {}

  /// Add a file; returns its stable index.
  std::uint32_t add(std::shared_ptr<const files::FileContent> file);

  [[nodiscard]] std::size_t count() const { return files_.size(); }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Files whose names contain every keyword of the query.
  struct Match {
    std::uint32_t index;
    const files::FileContent* file;
  };
  [[nodiscard]] std::vector<Match> match(std::string_view query) const;

  /// Lookup by index for upload serving; nullptr if out of range.
  [[nodiscard]] std::shared_ptr<const files::FileContent> get(std::uint32_t index) const;

  /// Build the QRP table summarizing all shared names.
  [[nodiscard]] QueryRouteTable build_qrt(unsigned table_bits = 13) const;

 private:
  std::shared_ptr<TokenInterner> interner_;
  std::vector<std::shared_ptr<const files::FileContent>> files_;
  /// Per-file sorted unique token ids, flattened; file i owns
  /// [offsets_[i], offsets_[i+1]).
  std::vector<std::uint32_t> token_ids_;
  std::vector<std::uint32_t> offsets_{0};
  std::uint64_t total_bytes_ = 0;
};

}  // namespace p2p::gnutella
