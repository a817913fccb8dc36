// OpenFT wire protocol (giFT's FT protocol, as implemented by the paper's
// instrumented OpenFT node).
//
// Framing: length(u16 BE) | command(u16 BE) | payload. Unlike Gnutella
// there is no TTL/GUID routing header; OpenFT is a two-tier architecture
// where USER nodes register their shares with SEARCH nodes up front
// (ADDSHARE) and searches are evaluated at the search nodes. This
// architectural difference — no query-echo opportunity for malware — is
// part of why the paper measures far less malware in OpenFT than LimeWire.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "files/hash.h"
#include "util/bytes.h"
#include "util/ip.h"
#include "util/payload.h"

namespace p2p::openft {

/// Node class bitmask (giFT: USER | SEARCH | INDEX).
enum NodeClass : std::uint16_t {
  kUser = 0x1,
  kSearch = 0x2,
  kIndex = 0x4,
};

enum class FtCommand : std::uint16_t {
  kVersionRequest = 0,
  kVersionResponse = 1,
  kNodeInfo = 2,
  kSessionRequest = 3,
  kSessionResponse = 4,
  kChildRequest = 5,
  kChildResponse = 6,
  kAddShare = 7,
  kRemShare = 8,
  kSearchRequest = 9,
  kSearchResponse = 10,
  kSearchEnd = 11,
  kPushRequest = 12,
  kStats = 13,
  kBrowseRequest = 14,
  kBrowseResponse = 15,
  kBrowseEnd = 16,
};

struct VersionRequest {};
struct VersionResponse {
  std::uint16_t major = 0, minor = 0, micro = 0, rev = 0;
};

struct NodeInfo {
  std::uint16_t klass = kUser;
  util::Endpoint addr;       // FT session port
  std::uint16_t http_port = 0;  // transfer port
  std::string alias;
};

struct SessionRequest {};
struct SessionResponse {
  bool accepted = false;
};

struct ChildRequest {};
struct ChildResponse {
  bool accepted = false;
};

struct AddShare {
  files::Digest16 md5{};
  std::uint32_t size = 0;
  std::string path;  // "/shared/<filename>"
};

struct RemShare {
  files::Digest16 md5{};
};

struct SearchRequest {
  std::uint64_t search_id = 0;
  std::uint8_t ttl = 2;
  std::string query;
};

struct SearchResponse {
  std::uint64_t search_id = 0;
  util::Endpoint owner;          // advertised address of the sharing USER
  std::uint16_t owner_http_port = 0;
  files::Digest16 md5{};
  std::uint32_t size = 0;
  std::string path;
  std::uint16_t availability = 1;
  bool owner_firewalled = false;
};

struct SearchEnd {
  std::uint64_t search_id = 0;
};

struct PushRequest {
  util::Endpoint requester;
  files::Digest16 md5{};
};

struct Stats {
  std::uint32_t users = 0;
  std::uint32_t shares = 0;
  std::uint32_t size_mb = 0;
};

/// Browse: enumerate a host's full share list (giFT supported browsing a
/// peer). The paper-flavored use: profiling the single host behind the top
/// OpenFT strain.
struct BrowseRequest {
  std::uint64_t browse_id = 0;
};
struct BrowseResponse {
  std::uint64_t browse_id = 0;
  files::Digest16 md5{};
  std::uint32_t size = 0;
  std::string path;
};
struct BrowseEnd {
  std::uint64_t browse_id = 0;
  std::uint32_t total = 0;
};

using FtPayload = std::variant<VersionRequest, VersionResponse, NodeInfo,
                               SessionRequest, SessionResponse, ChildRequest,
                               ChildResponse, AddShare, RemShare, SearchRequest,
                               SearchResponse, SearchEnd, PushRequest, Stats,
                               BrowseRequest, BrowseResponse, BrowseEnd>;

struct FtPacket {
  FtCommand command = FtCommand::kVersionRequest;
  FtPayload payload;
};

/// Serialize to length-prefixed wire bytes: one util::Payload allocation.
[[nodiscard]] util::Payload serialize(const FtPacket& pkt);

/// Parse one packet; nullopt on malformed input.
[[nodiscard]] std::optional<FtPacket> parse(util::ByteView wire);

/// Convenience constructors (keep command tag and payload type in sync).
[[nodiscard]] FtPacket make_packet(FtPayload payload);

}  // namespace p2p::openft
