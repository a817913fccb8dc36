// The OpenFT/KAD file-transfer codec: GET/200/404 round trips, and
// rejection of malformed input from the network.
#include "files/transfer.h"

#include <gtest/gtest.h>

#include <string>

namespace p2p::files {
namespace {

util::Bytes wire(const std::string& text) { return util::text_bytes(text); }

TEST(TransferCodec, RoundTripsGetOkAndNotFound) {
  Digest16 md5 = files::md5(wire("payload"));
  util::Payload get = make_get(md5);
  EXPECT_EQ(std::string(util::as_view(get)), "GET /" + hex(md5) + " HTTP/1.1\r\n\r\n");
  auto parsed_get = parse_get(get);
  ASSERT_TRUE(parsed_get.has_value());
  EXPECT_EQ(*parsed_get, md5);

  // A body may hold anything, a header terminator and NUL bytes included.
  util::Bytes body = wire("MZ binary\r\n\r\nbody");
  body.push_back(0x00);
  body.push_back(0x90);
  util::Payload ok = make_response(200, &body);
  EXPECT_TRUE(util::as_view(ok).starts_with("HTTP/1.1 200 OK\r\nContent-Length: " +
                                      std::to_string(body.size()) + "\r\n\r\n"));
  auto parsed_ok = parse_response(ok);
  ASSERT_TRUE(parsed_ok.has_value());
  EXPECT_EQ(parsed_ok->status, 200);
  EXPECT_EQ(parsed_ok->body, body);

  util::Payload missing = make_response(404, nullptr);
  EXPECT_EQ(std::string(util::as_view(missing)),
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
  auto parsed_missing = parse_response(missing);
  ASSERT_TRUE(parsed_missing.has_value());
  EXPECT_EQ(parsed_missing->status, 404);
  EXPECT_TRUE(parsed_missing->body.empty());
}

TEST(TransferCodec, RejectsMalformedInput) {
  const std::string digest(32, 'a');
  ASSERT_TRUE(parse_get(wire("GET /" + digest + " HTTP/1.1\r\n\r\n")).has_value());
  // Bad hex, wrong digest length, wrong verb, no terminating space.
  EXPECT_FALSE(parse_get(wire("GET /" + std::string(31, 'a') + "z HTTP/1.1\r\n\r\n")));
  EXPECT_FALSE(parse_get(wire("GET /" + std::string(40, 'a') + " HTTP/1.1\r\n\r\n")));
  EXPECT_FALSE(parse_get(wire("GET /" + std::string(30, 'a') + " HTTP/1.1\r\n\r\n")));
  EXPECT_FALSE(parse_get(wire("PUT /" + digest + " HTTP/1.1\r\n\r\n")));
  EXPECT_FALSE(parse_get(wire("GET /" + digest)));
  EXPECT_FALSE(parse_get(wire("")));

  // Missing header terminator, non-numeric status, wrong protocol.
  EXPECT_FALSE(parse_response(wire("HTTP/1.1 200 OK\r\nContent-Length: 4\r\nbody")));
  EXPECT_FALSE(parse_response(wire("HTTP/1.1 OK\r\n\r\nbody")));
  EXPECT_FALSE(parse_response(wire("HTTP/1.1 \r\n\r\n")));
  EXPECT_FALSE(parse_response(wire("HTTP/1.0 200 OK\r\n\r\n")));
  EXPECT_FALSE(parse_response(wire("")));
}

TEST(TransferCodec, BasenameStripsTheSharePath) {
  EXPECT_EQ(basename_of("/shared/setup.exe"), "setup.exe");
  EXPECT_EQ(basename_of("setup.exe"), "setup.exe");
  EXPECT_EQ(basename_of("/shared/"), "");
}

}  // namespace
}  // namespace p2p::files
