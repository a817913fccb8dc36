#include "gnutella/http.h"

#include <charconv>

#include "util/strings.h"

namespace p2p::gnutella {

namespace {

using util::as_view;

/// Split "HEAD\r\nName: Value\r\n...\r\n\r\n<rest>" into (head lines, body).
struct SplitMessage {
  std::vector<std::string> lines;
  util::Bytes body;
};

std::optional<SplitMessage> split_head(util::ByteView wire) {
  std::string_view text = as_view(wire);
  std::size_t sep = text.find("\r\n\r\n");
  if (sep == std::string_view::npos) return std::nullopt;
  SplitMessage out;
  std::string_view head = text.substr(0, sep);
  std::size_t start = 0;
  while (start <= head.size()) {
    std::size_t end = head.find("\r\n", start);
    if (end == std::string_view::npos) end = head.size();
    if (end > start) out.lines.emplace_back(head.substr(start, end - start));
    if (end == head.size()) break;
    start = end + 2;
  }
  out.body.assign(wire.begin() + static_cast<std::ptrdiff_t>(sep + 4), wire.end());
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_headers(
    const std::vector<std::string>& lines) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) continue;
    std::string name = lines[i].substr(0, colon);
    std::size_t vstart = colon + 1;
    while (vstart < lines[i].size() && lines[i][vstart] == ' ') ++vstart;
    out.emplace_back(std::move(name), lines[i].substr(vstart));
  }
  return out;
}

std::string url_encode(std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
                c == '~' || c == '/';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    }
  }
  return out;
}

void write_header(util::ByteWriter& w, std::string_view name, std::string_view value) {
  w.str(name);
  w.str(": ");
  w.str(value);
  w.str("\r\n");
}

std::string url_decode(std::string_view s) {
  auto hex_val = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      int hi = hex_val(s[i + 1]);
      int lo = hex_val(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

}  // namespace

util::Payload HttpRequest::serialize() const {
  return util::encode_payload([this](util::ByteWriter& w) {
    w.str(method);
    w.u8(' ');
    w.str(path);
    w.str(" HTTP/1.1\r\n");
    for (const auto& [name, value] : headers) write_header(w, name, value);
    w.str("\r\n");
  });
}

std::optional<HttpRequest> HttpRequest::parse(util::ByteView wire) {
  auto split = split_head(wire);
  if (!split || split->lines.empty()) return std::nullopt;
  auto parts = util::split(split->lines[0], " ");
  if (parts.size() != 3 || !parts[2].starts_with("HTTP/")) return std::nullopt;
  HttpRequest req;
  req.method = parts[0];
  req.path = parts[1];
  req.headers = parse_headers(split->lines);
  return req;
}

util::Payload HttpResponse::serialize(util::ByteView content) const {
  return util::encode_payload(
      [&](util::ByteWriter& w) {
        w.str("HTTP/1.1 ");
        w.str(std::to_string(status));
        w.u8(' ');
        w.str(reason);
        w.str("\r\n");
        bool has_length = false;
        for (const auto& [name, value] : headers) {
          write_header(w, name, value);
          if (name == "Content-Length") has_length = true;
        }
        if (!has_length) write_header(w, "Content-Length", std::to_string(content.size()));
        w.str("\r\n");
      },
      content);
}

std::optional<HttpResponse> HttpResponse::parse(util::ByteView wire) {
  auto split = split_head(wire);
  if (!split || split->lines.empty()) return std::nullopt;
  const std::string& status_line = split->lines[0];
  if (!status_line.starts_with("HTTP/")) return std::nullopt;
  auto parts = util::split(status_line, " ");
  if (parts.size() < 2) return std::nullopt;
  HttpResponse resp;
  auto [ptr, ec] = std::from_chars(parts[1].data(), parts[1].data() + parts[1].size(),
                                   resp.status);
  if (ec != std::errc{}) return std::nullopt;
  resp.reason = parts.size() > 2 ? parts[2] : "";
  resp.headers = parse_headers(split->lines);
  resp.body = std::move(split->body);
  // Enforce Content-Length framing when present.
  for (const auto& [name, value] : resp.headers) {
    if (name == "Content-Length") {
      std::uint64_t len = 0;
      auto [p2, ec2] = std::from_chars(value.data(), value.data() + value.size(), len);
      if (ec2 != std::errc{} || len != resp.body.size()) return std::nullopt;
    }
  }
  return resp;
}

std::optional<std::pair<std::uint32_t, std::string>> parse_get_path(
    const std::string& path) {
  constexpr std::string_view kPrefix = "/get/";
  if (!path.starts_with(kPrefix)) return std::nullopt;
  std::size_t slash = path.find('/', kPrefix.size());
  if (slash == std::string::npos || slash + 1 >= path.size()) return std::nullopt;
  std::uint32_t index = 0;
  const char* begin = path.data() + kPrefix.size();
  const char* end = path.data() + slash;
  auto [ptr, ec] = std::from_chars(begin, end, index);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return std::make_pair(index, url_decode(path.substr(slash + 1)));
}

HttpRequest make_get_request(std::uint32_t index, const std::string& filename) {
  HttpRequest req;
  req.path = "/get/" + std::to_string(index) + "/" + url_encode(filename);
  req.headers = {{"User-Agent", "P2PMAL/1.0"}, {"Connection", "close"}};
  return req;
}

util::Payload GivLine::serialize() const {
  return util::encode_payload([this](util::ByteWriter& w) {
    w.str("GIV ");
    w.str(std::to_string(index));
    w.u8(':');
    w.hex(servent_guid.bytes);
    w.u8('/');
    w.str(filename);
    w.str("\n\n");
  });
}

std::optional<GivLine> GivLine::parse(util::ByteView wire) {
  std::string_view text = as_view(wire);
  if (!text.starts_with("GIV ")) return std::nullopt;
  std::size_t nl = text.find("\n\n");
  if (nl == std::string_view::npos) return std::nullopt;
  std::string_view line = text.substr(4, nl - 4);
  std::size_t colon = line.find(':');
  std::size_t slash = line.find('/', colon == std::string_view::npos ? 0 : colon);
  if (colon == std::string_view::npos || slash == std::string_view::npos) {
    return std::nullopt;
  }
  GivLine giv;
  auto idx_str = line.substr(0, colon);
  auto [ptr, ec] =
      std::from_chars(idx_str.data(), idx_str.data() + idx_str.size(), giv.index);
  if (ec != std::errc{}) return std::nullopt;
  auto guid_hex = line.substr(colon + 1, slash - colon - 1);
  if (!util::from_hex_into(guid_hex, giv.servent_guid.bytes)) return std::nullopt;
  giv.filename = std::string(line.substr(slash + 1));
  return giv;
}

bool looks_like_http_request(util::ByteView wire) {
  return as_view(wire).starts_with("GET ");
}

bool looks_like_giv(util::ByteView wire) {
  return as_view(wire).starts_with("GIV ");
}

bool looks_like_handshake(util::ByteView wire) {
  return as_view(wire).starts_with("GNUTELLA");
}

}  // namespace p2p::gnutella
