// Content hashing.
//
// SHA-1 is what Gnutella uses for file identity (HUGE/urn:sha1 in QueryHits
// and LimeWire's hash-based filter lists); MD5 is what giFT/OpenFT uses for
// share digests. Both are implemented here from the specs — no external
// dependencies. (The ZIP container's CRC-32 is util::crc32.)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.h"

namespace p2p::files {

using Digest20 = std::array<std::uint8_t, 20>;
using Digest16 = std::array<std::uint8_t, 16>;

/// Incremental SHA-1 (FIPS 180-1).
class Sha1 {
 public:
  Sha1();
  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] Digest20 finish();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t h_[5];
  std::uint64_t length_ = 0;  // bytes
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

/// Incremental MD5 (RFC 1321).
class Md5 {
 public:
  Md5();
  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] Digest16 finish();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[4];
  std::uint64_t length_ = 0;  // bytes
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

/// One-shot helpers.
[[nodiscard]] Digest20 sha1(std::span<const std::uint8_t> data);
[[nodiscard]] Digest16 md5(std::span<const std::uint8_t> data);

/// Lowercase hex of a digest.
[[nodiscard]] std::string hex(const Digest20& d);
[[nodiscard]] std::string hex(const Digest16& d);

}  // namespace p2p::files
