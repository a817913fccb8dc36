#include "files/transfer.h"

#include <algorithm>
#include <charconv>

namespace p2p::files {

util::Bytes make_get(const Digest16& md5) {
  return util::text_bytes("GET /" + hex(md5) + " HTTP/1.1\r\n\r\n");
}

std::optional<Digest16> parse_get(util::ByteView wire) {
  std::string_view text = util::as_view(wire);
  if (!text.starts_with("GET /")) return std::nullopt;
  std::size_t space = text.find(' ', 5);
  if (space == std::string_view::npos) return std::nullopt;
  auto bytes = util::from_hex(text.substr(5, space - 5));
  Digest16 md5;
  if (!bytes || bytes->size() != md5.size()) return std::nullopt;
  std::copy(bytes->begin(), bytes->end(), md5.begin());
  return md5;
}

util::Bytes make_response(int status, const util::Bytes* body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) +
                     (status == 200 ? " OK" : " Not Found") + "\r\nContent-Length: " +
                     std::to_string(body ? body->size() : 0) + "\r\n\r\n";
  util::Bytes out = util::text_bytes(head);
  if (body) out.insert(out.end(), body->begin(), body->end());
  return out;
}

std::optional<ParsedResponse> parse_response(util::ByteView wire) {
  std::string_view text = util::as_view(wire);
  if (!text.starts_with("HTTP/1.1 ")) return std::nullopt;
  std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  ParsedResponse out;
  auto status_str = text.substr(9, 3);
  auto [p, ec] = std::from_chars(status_str.data(), status_str.data() + 3, out.status);
  if (ec != std::errc{}) return std::nullopt;
  out.body.assign(wire.begin() + static_cast<std::ptrdiff_t>(head_end + 4), wire.end());
  return out;
}

std::string basename_of(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace p2p::files
