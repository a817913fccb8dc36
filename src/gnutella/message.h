// Gnutella 0.6 binary descriptors, serialized in the real wire format:
//
//   header: GUID(16) | type(1) | TTL(1) | hops(1) | payload_length(4 LE)
//
// Payload types implemented: Ping (0x00), Pong (0x01), Push (0x40),
// Query (0x80), QueryHit (0x81), plus the QRP route-table update (0x30)
// ultrapeers exchange with leaves. QueryHit result entries carry a
// urn:sha1 extension string, as LimeWire emitted (HUGE).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "files/hash.h"
#include "gnutella/guid.h"
#include "util/bytes.h"
#include "util/ip.h"
#include "util/payload.h"

namespace p2p::gnutella {

enum class MsgType : std::uint8_t {
  kPing = 0x00,
  kPong = 0x01,
  kBye = 0x02,
  kQrp = 0x30,
  kPush = 0x40,
  kQuery = 0x80,
  kQueryHit = 0x81,
};

struct Header {
  Guid guid;
  MsgType type = MsgType::kPing;
  std::uint8_t ttl = 7;
  std::uint8_t hops = 0;
};

struct Ping {};

/// Graceful disconnect (BYE, GDF extension): code + human-readable reason.
/// A peer receiving BYE treats the link as closed without waiting for the
/// transport-level teardown.
struct Bye {
  std::uint16_t code = 200;
  std::string reason;
};

struct Pong {
  util::Endpoint addr;
  std::uint32_t file_count = 0;
  std::uint32_t kb_shared = 0;
};

struct Query {
  std::uint16_t min_speed = 0;
  std::string criteria;
};

struct QueryHitResult {
  std::uint32_t index = 0;
  std::uint32_t size = 0;
  std::string filename;
  files::Digest20 sha1{};  // carried as a urn:sha1 extension
};

struct QueryHit {
  util::Endpoint addr;
  std::uint32_t speed = 0;
  std::vector<QueryHitResult> results;
  /// True if the responder cannot accept incoming connections and needs a
  /// PUSH (the trailer's busy/push flag).
  bool needs_push = false;
  Guid servent_guid;
};

struct Push {
  Guid servent_guid;
  std::uint32_t file_index = 0;
  util::Endpoint requester;
};

/// QRP route-table update. Real servents send RESET then zlib-compressed
/// PATCH sequences; we implement RESET and a single uncompressed PATCH
/// carrying the whole bit table, preserving message structure and size
/// order-of-magnitude without a compressor dependency.
struct QrpReset {
  std::uint32_t table_bits = 0;  // table size = 2^table_bits entries
};
struct QrpPatch {
  util::Bytes bits;  // one byte per table slot (0/1)
};
struct Qrp {
  std::variant<QrpReset, QrpPatch> op;
};

using Payload = std::variant<Ping, Pong, Query, QueryHit, Push, Qrp, Bye>;

struct Message {
  Header header;
  Payload payload;

  [[nodiscard]] MsgType type() const { return header.type; }
};

/// Serialize to the wire format: one util::Payload allocation.
[[nodiscard]] util::Payload serialize(const Message& msg);
/// Serialize `payload` under `header`, the way a servent forwards a
/// descriptor with a new TTL and hop count without copying the Message.
[[nodiscard]] util::Payload serialize(const Header& header, const Payload& payload);

/// Parse one descriptor. Returns nullopt on malformed input (bad lengths,
/// unknown type, truncation) — the servent drops such traffic.
[[nodiscard]] std::optional<Message> parse(util::ByteView wire);

/// Helper constructors that fill in type tags consistently.
[[nodiscard]] Message make_ping(Guid guid, std::uint8_t ttl);
[[nodiscard]] Message make_pong(Guid guid, std::uint8_t ttl, const Pong& pong);
[[nodiscard]] Message make_query(Guid guid, std::uint8_t ttl, std::string criteria,
                                 std::uint16_t min_speed = 0);
[[nodiscard]] Message make_query_hit(Guid guid, std::uint8_t ttl, QueryHit hit);
[[nodiscard]] Message make_push(Guid guid, std::uint8_t ttl, const Push& push);
[[nodiscard]] Message make_qrp_reset(Guid guid, std::uint32_t table_bits);
[[nodiscard]] Message make_qrp_patch(Guid guid, util::Bytes bits);
[[nodiscard]] Message make_bye(Guid guid, std::uint16_t code, std::string reason);

}  // namespace p2p::gnutella
