#include "files/transfer.h"

#include <algorithm>
#include <charconv>

namespace p2p::files {

util::Payload make_get(const Digest16& md5) {
  return util::encode_payload([&](util::ByteWriter& w) {
    w.str("GET /");
    w.hex(md5);
    w.str(" HTTP/1.1\r\n\r\n");
  });
}

std::optional<Digest16> parse_get(util::ByteView wire) {
  std::string_view text = util::as_view(wire);
  if (!text.starts_with("GET /")) return std::nullopt;
  std::size_t space = text.find(' ', 5);
  if (space == std::string_view::npos) return std::nullopt;
  Digest16 md5;
  if (!util::from_hex_into(text.substr(5, space - 5), md5)) return std::nullopt;
  return md5;
}

util::Payload make_response(int status, const util::Bytes* body) {
  const util::ByteView content = body ? util::ByteView(*body) : util::ByteView();
  return util::encode_payload(
      [&](util::ByteWriter& w) {
        w.str("HTTP/1.1 ");
        w.str(std::to_string(status));
        w.str(status == 200 ? " OK" : " Not Found");
        w.str("\r\nContent-Length: ");
        w.str(std::to_string(content.size()));
        w.str("\r\n\r\n");
      },
      content);
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
