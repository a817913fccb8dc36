// The HTTP-flavored file-transfer exchange the OpenFT and KAD stacks share:
// "GET /<md5 hex> HTTP/1.1" asks for a content by digest; the reply is an
// HTTP/1.1 status line, a Content-Length header and the body.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "files/hash.h"
#include "util/bytes.h"
#include "util/payload.h"

namespace p2p::files {

[[nodiscard]] util::Payload make_get(const Digest16& md5);
/// The requested digest, or nullopt for anything but a well-formed GET of a
/// 32-hex-digit digest.
[[nodiscard]] std::optional<Digest16> parse_get(util::ByteView wire);

/// A 200 carrying `body`, or a 404 when `body` is null. The body is copied
/// once, straight into the payload.
[[nodiscard]] util::Payload make_response(int status, const util::Bytes* body);

struct ParsedResponse {
  int status = 0;
  util::Bytes body;
};
/// nullopt unless `wire` has an HTTP/1.1 status line with a numeric status
/// and a complete header block.
[[nodiscard]] std::optional<ParsedResponse> parse_response(util::ByteView wire);

/// Shares carry a path ("/shared/foo.exe"); responses display the basename.
[[nodiscard]] std::string basename_of(const std::string& path);

}  // namespace p2p::files
