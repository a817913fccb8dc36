// Minimal HTTP/1.1 subset for Gnutella file transfers.
//
// Uploads are served over dedicated connections: the requester sends
// "GET /get/<index>/<filename> HTTP/1.1" and the server replies with a
// Content-Length-framed body. Firewalled servers connect back after a PUSH
// and announce themselves with a "GIV <index>:<guid>/<filename>" line.
// Because the simulated transport is message-framed, one request or
// response is one transport message (headers and body together).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gnutella/guid.h"
#include "util/bytes.h"
#include "util/payload.h"

namespace p2p::gnutella {

struct HttpRequest {
  std::string method = "GET";
  std::string path;
  std::vector<std::pair<std::string, std::string>> headers;

  [[nodiscard]] util::Payload serialize() const;
  static std::optional<HttpRequest> parse(util::ByteView wire);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  util::Bytes body;

  [[nodiscard]] util::Payload serialize() const { return serialize(body); }
  /// serialize() with `content` in place of `body`: an upload sends the
  /// shared file's bytes, copied once, straight into the payload.
  [[nodiscard]] util::Payload serialize(util::ByteView content) const;
  static std::optional<HttpResponse> parse(util::ByteView wire);
};

/// "/get/<index>/<filename>" -> (index, filename); nullopt if not that shape.
[[nodiscard]] std::optional<std::pair<std::uint32_t, std::string>> parse_get_path(
    const std::string& path);

/// Build the /get request for a query-hit result.
[[nodiscard]] HttpRequest make_get_request(std::uint32_t index,
                                           const std::string& filename);

/// PUSH connect-back announcement line.
struct GivLine {
  std::uint32_t index = 0;
  Guid servent_guid;
  std::string filename;

  [[nodiscard]] util::Payload serialize() const;
  static std::optional<GivLine> parse(util::ByteView wire);
};

/// Quick dispatch on an incoming transfer-connection message.
[[nodiscard]] bool looks_like_http_request(util::ByteView wire);
[[nodiscard]] bool looks_like_giv(util::ByteView wire);
[[nodiscard]] bool looks_like_handshake(util::ByteView wire);

}  // namespace p2p::gnutella
