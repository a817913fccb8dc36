// KAD wire protocol (eDonkey/Overnet-flavored Kademlia RPCs).
//
// Framing matches the repo's OpenFT stack: length(u16 BE) | command(u16
// BE) | payload, one packet per simulated message. Each RPC runs on its
// own short-lived connection (connect, request, reply, close), so there
// is no transaction id in the wire format — the connection is the
// correlation handle, as in the real UDP protocol's (ip, port, opcode)
// matching.
//
// Beyond the core Kademlia verbs (PING, FIND_NODE, FIND_VALUE, STORE)
// the protocol carries the eDonkey ecosystem pieces the honeypot papers
// measure: server-assisted fallback search (an index server clients
// register sources with and query when the DHT comes up short).
// Content transfers do NOT use this framing — the u16 length prefix caps
// a packet at 64 KiB, so downloads run over a dedicated transfer
// connection with the same HTTP-flavored text exchange the OpenFT stack
// uses (see KadNode).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "files/hash.h"
#include "kad/id.h"
#include "util/bytes.h"
#include "util/ip.h"
#include "util/payload.h"

namespace p2p::kad {

enum class KadCommand : std::uint16_t {
  kPing = 0,
  kPong = 1,
  kFindNode = 2,
  kFindNodeReply = 3,
  kFindValue = 4,
  kFindValueReply = 5,
  kStore = 6,
  kStoreReply = 7,
  kServerRegister = 8,
  kServerQuery = 9,
  kServerQueryReply = 10,
};

/// Routing-table entry as carried on the wire.
struct Contact {
  KadId id;
  util::Endpoint addr;
  bool firewalled = false;

  auto operator<=>(const Contact&) const = default;
};

/// One published source: "this owner shares this file under this
/// keyword". The md5 identifies the content for download and
/// verification; poisoned entries advertise malware under bait names.
struct SourceEntry {
  KadId keyword;
  std::string filename;
  std::uint64_t size = 0;
  files::Digest16 md5{};
  util::Endpoint owner;
  bool firewalled = false;
};

struct Ping {
  Contact sender;
};
struct Pong {
  Contact sender;
};

struct FindNode {
  Contact sender;
  KadId target;
};
struct FindNodeReply {
  std::vector<Contact> contacts;
};

struct FindValue {
  Contact sender;
  KadId key;
};
struct FindValueReply {
  std::vector<SourceEntry> entries;
  std::vector<Contact> contacts;
};

struct Store {
  Contact sender;
  std::vector<SourceEntry> entries;
};
struct StoreReply {
  std::uint32_t stored = 0;
};

/// Register/refresh all of an owner's sources at an index server.
struct ServerRegister {
  util::Endpoint owner;
  bool firewalled = false;
  std::vector<SourceEntry> entries;
};

struct ServerQuery {
  std::uint64_t query_id = 0;
  std::string query;
};
struct ServerQueryReply {
  std::uint64_t query_id = 0;
  std::vector<SourceEntry> entries;
};

using KadPayload =
    std::variant<Ping, Pong, FindNode, FindNodeReply, FindValue,
                 FindValueReply, Store, StoreReply, ServerRegister,
                 ServerQuery, ServerQueryReply>;

struct KadPacket {
  KadCommand command = KadCommand::kPing;
  KadPayload payload;
};

/// Hard caps on wire-carried vector lengths; parse rejects anything
/// larger (bounds allocations on malformed/fuzzed input).
inline constexpr std::size_t kMaxContacts = 64;
inline constexpr std::size_t kMaxEntries = 128;

/// Serialize to length-prefixed wire bytes: one util::Payload allocation.
[[nodiscard]] util::Payload serialize(const KadPacket& pkt);

/// Parse one packet; nullopt on malformed input.
[[nodiscard]] std::optional<KadPacket> parse(util::ByteView wire);

/// Convenience constructor (keeps command tag and payload type in sync).
[[nodiscard]] KadPacket make_packet(KadPayload payload);

}  // namespace p2p::kad
