#include "gnutella/http.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace p2p::gnutella {
namespace {

TEST(HttpRequest, SerializeParseRoundTrip) {
  HttpRequest req = make_get_request(42, "plain.exe");
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  auto get = parse_get_path(parsed->path);
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->first, 42u);
  EXPECT_EQ(get->second, "plain.exe");
}

TEST(HttpRequest, FilenamesWithSpacesSurvive) {
  // Regression: spaces in advertised filenames must not break the request
  // line (they broke every crawler download before URL-encoding).
  HttpRequest req = make_get_request(7, "blue horizon - midnight rain.exe");
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  auto get = parse_get_path(parsed->path);
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->second, "blue horizon - midnight rain.exe");
}

TEST(HttpRequest, CarriesHeaders) {
  HttpRequest req = make_get_request(1, "f.zip");
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  bool has_ua = false;
  for (const auto& [name, value] : parsed->headers) {
    if (name == "User-Agent") has_ua = true;
  }
  EXPECT_TRUE(has_ua);
}

TEST(HttpRequest, RejectsGarbage) {
  util::Bytes junk = {'x', 'y', 'z'};
  EXPECT_FALSE(HttpRequest::parse(junk).has_value());
}

TEST(ParseGetPath, RejectsWrongShapes) {
  EXPECT_FALSE(parse_get_path("/uri-res/N2R").has_value());
  EXPECT_FALSE(parse_get_path("/get/").has_value());
  EXPECT_FALSE(parse_get_path("/get/abc/file").has_value());
  EXPECT_FALSE(parse_get_path("/get/12").has_value());
  EXPECT_FALSE(parse_get_path("/get/12/").has_value());
}

TEST(HttpResponse, RoundTripWithBody) {
  HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.body = {1, 2, 3, 4, 5};
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, resp.body);
}

TEST(HttpResponse, AutoContentLength) {
  HttpResponse resp;
  resp.body = util::Bytes(321);
  auto wire = resp.serialize();
  std::string text(wire.begin(), wire.end());
  EXPECT_NE(text.find("Content-Length: 321"), std::string::npos);
}

TEST(HttpResponse, RejectsLengthMismatch) {
  HttpResponse resp;
  resp.body = {1, 2, 3};
  auto wire = resp.serialize().to_bytes();
  wire.push_back(99);  // extra byte beyond Content-Length
  EXPECT_FALSE(HttpResponse::parse(wire).has_value());
}

TEST(HttpResponse, BinaryBodySurvives) {
  HttpResponse resp;
  util::Rng rng(3);
  resp.body.resize(4096);
  rng.fill(resp.body);
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, resp.body);
}

TEST(HttpResponse, NotFoundRoundTrip) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Found";
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 404);
  EXPECT_TRUE(parsed->body.empty());
}

TEST(GivLine, RoundTrip) {
  util::Rng rng(9);
  GivLine giv;
  giv.index = 1234;
  giv.servent_guid = Guid::random(rng);
  giv.filename = "file with spaces.zip";
  auto parsed = GivLine::parse(giv.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->index, 1234u);
  EXPECT_EQ(parsed->servent_guid, giv.servent_guid);
  EXPECT_EQ(parsed->filename, giv.filename);
}

TEST(GivLine, RejectsMalformed) {
  util::Bytes no_giv = {'G', 'E', 'T', ' '};
  EXPECT_FALSE(GivLine::parse(no_giv).has_value());
  std::string bad = "GIV notanumber:xx/file\n\n";
  EXPECT_FALSE(GivLine::parse(util::Bytes(bad.begin(), bad.end())).has_value());
  std::string short_guid = "GIV 5:abcd/file\n\n";
  EXPECT_FALSE(GivLine::parse(util::Bytes(short_guid.begin(), short_guid.end())).has_value());
}

TEST(Classifiers, DistinguishMessageKinds) {
  util::Rng rng(9);
  auto get = make_get_request(1, "x").serialize();
  EXPECT_TRUE(looks_like_http_request(get));
  EXPECT_FALSE(looks_like_giv(get));
  EXPECT_FALSE(looks_like_handshake(get));

  GivLine giv;
  giv.servent_guid = Guid::random(rng);
  giv.filename = "f";
  auto giv_wire = giv.serialize();
  EXPECT_TRUE(looks_like_giv(giv_wire));
  EXPECT_FALSE(looks_like_http_request(giv_wire));

  std::string hs = "GNUTELLA CONNECT/0.6\r\n\r\n";
  util::Bytes hs_wire(hs.begin(), hs.end());
  EXPECT_TRUE(looks_like_handshake(hs_wire));
  EXPECT_FALSE(looks_like_http_request(hs_wire));
}

}  // namespace
}  // namespace p2p::gnutella
