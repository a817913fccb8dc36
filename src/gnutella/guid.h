// Gnutella message GUIDs: 16 opaque bytes identifying a descriptor for
// routing (duplicate suppression, route-back tables) and identifying
// servents (QueryHit trailers, Push targets).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "util/bytes.h"
#include "util/rng.h"

namespace p2p::gnutella {

struct Guid {
  std::array<std::uint8_t, 16> bytes{};

  static Guid random(util::Rng& rng) {
    Guid g;
    rng.fill(g.bytes);
    // Modern-servent convention: byte 8 = 0xff, byte 15 = 0x00.
    g.bytes[8] = 0xff;
    g.bytes[15] = 0x00;
    return g;
  }

  [[nodiscard]] std::string hex() const { return util::to_hex(bytes); }

  auto operator<=>(const Guid&) const = default;
};

/// Two 8-byte loads and one multiply-mix. Each step is a bijection of the
/// half it takes in (rotate, xor with the other half, multiply by an odd
/// constant, xor-shift), so a change confined to either 8-byte half always
/// changes the hash. Nothing iterates a Guid-keyed container, so the hash
/// decides lookup speed only, never output order.
struct GuidHash {
  std::size_t operator()(const Guid& g) const {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, g.bytes.data(), 8);
    std::memcpy(&hi, g.bytes.data() + 8, 8);
    std::uint64_t h = (lo ^ std::rotl(hi, 31)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

}  // namespace p2p::gnutella
