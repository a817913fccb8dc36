#include "openft/packet.h"

#include <gtest/gtest.h>

namespace p2p::openft {
namespace {

files::Digest16 md5_of(int fill) {
  files::Digest16 d;
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::uint8_t>(fill + static_cast<int>(i));
  }
  return d;
}

template <typename T>
T round_trip(T payload) {
  auto wire = serialize(make_packet(std::move(payload)));
  auto parsed = parse(wire);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(parsed->payload));
  return std::get<T>(parsed->payload);
}

TEST(FtPacket, VersionRoundTrip) {
  auto v = round_trip(VersionResponse{0, 2, 1, 6});
  EXPECT_EQ(v.major, 0);
  EXPECT_EQ(v.minor, 2);
  EXPECT_EQ(v.micro, 1);
  EXPECT_EQ(v.rev, 6);
}

TEST(FtPacket, EmptyPayloadsRoundTrip) {
  (void)round_trip(VersionRequest{});
  (void)round_trip(SessionRequest{});
  (void)round_trip(ChildRequest{});
}

TEST(FtPacket, NodeInfoRoundTrip) {
  NodeInfo info;
  info.klass = kSearch | kUser;
  info.addr = {util::Ipv4(1, 2, 3, 4), 1216};
  info.http_port = 1217;
  info.alias = "some node";
  auto out = round_trip(info);
  EXPECT_EQ(out.klass, kSearch | kUser);
  EXPECT_EQ(out.addr.ip.str(), "1.2.3.4");
  EXPECT_EQ(out.addr.port, 1216);
  EXPECT_EQ(out.http_port, 1217);
  EXPECT_EQ(out.alias, "some node");
}

TEST(FtPacket, SessionAndChildResponses) {
  EXPECT_TRUE(round_trip(SessionResponse{true}).accepted);
  EXPECT_FALSE(round_trip(SessionResponse{false}).accepted);
  EXPECT_TRUE(round_trip(ChildResponse{true}).accepted);
  EXPECT_FALSE(round_trip(ChildResponse{false}).accepted);
}

TEST(FtPacket, AddShareRoundTrip) {
  AddShare share;
  share.md5 = md5_of(10);
  share.size = 123'456;
  share.path = "/shared/photomax v3.1 setup.exe";
  auto out = round_trip(share);
  EXPECT_EQ(out.md5, share.md5);
  EXPECT_EQ(out.size, share.size);
  EXPECT_EQ(out.path, share.path);
}

TEST(FtPacket, RemShareRoundTrip) {
  EXPECT_EQ(round_trip(RemShare{md5_of(3)}).md5, md5_of(3));
}

TEST(FtPacket, SearchRequestRoundTrip) {
  SearchRequest req;
  req.search_id = 0xDEADBEEFCAFEBABEull;
  req.ttl = 2;
  req.query = "blue horizon";
  auto out = round_trip(req);
  EXPECT_EQ(out.search_id, req.search_id);
  EXPECT_EQ(out.ttl, 2);
  EXPECT_EQ(out.query, "blue horizon");
}

TEST(FtPacket, SearchResponseRoundTrip) {
  SearchResponse resp;
  resp.search_id = 42;
  resp.owner = {util::Ipv4(10, 0, 0, 1), 5555};
  resp.owner_http_port = 0;
  resp.md5 = md5_of(7);
  resp.size = 81'920;
  resp.path = "/shared/file.exe";
  resp.availability = 3;
  resp.owner_firewalled = true;
  auto out = round_trip(resp);
  EXPECT_EQ(out.search_id, 42u);
  EXPECT_EQ(out.owner.ip.str(), "10.0.0.1");
  EXPECT_EQ(out.owner_http_port, 0);
  EXPECT_EQ(out.md5, resp.md5);
  EXPECT_EQ(out.size, 81'920u);
  EXPECT_EQ(out.path, resp.path);
  EXPECT_EQ(out.availability, 3);
  EXPECT_TRUE(out.owner_firewalled);
}

TEST(FtPacket, SearchEndRoundTrip) {
  EXPECT_EQ(round_trip(SearchEnd{977}).search_id, 977u);
}

TEST(FtPacket, PushRequestRoundTrip) {
  PushRequest push;
  push.requester = {util::Ipv4(9, 8, 7, 6), 2048};
  push.md5 = md5_of(1);
  auto out = round_trip(push);
  EXPECT_EQ(out.requester.ip.str(), "9.8.7.6");
  EXPECT_EQ(out.requester.port, 2048);
  EXPECT_EQ(out.md5, push.md5);
}

TEST(FtPacket, StatsRoundTrip) {
  auto out = round_trip(Stats{100, 2000, 34'567});
  EXPECT_EQ(out.users, 100u);
  EXPECT_EQ(out.shares, 2000u);
  EXPECT_EQ(out.size_mb, 34'567u);
}

TEST(FtPacket, RejectsUnknownCommand) {
  auto wire = serialize(make_packet(VersionRequest{})).to_bytes();
  wire[3] = 0x7F;  // command low byte
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(FtPacket, RejectsLengthMismatch) {
  auto wire = serialize(make_packet(SearchEnd{1})).to_bytes();
  wire[1] = static_cast<std::uint8_t>(wire[1] + 1);
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(FtPacket, RejectsTruncated) {
  auto wire = serialize(make_packet(Stats{1, 2, 3})).to_bytes();
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(FtPacket, RejectsTrailingGarbage) {
  auto wire = serialize(make_packet(SearchEnd{1})).to_bytes();
  wire.push_back(0xAA);
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(FtPacket, CommandTagsMatchPayloads) {
  EXPECT_EQ(make_packet(VersionRequest{}).command, FtCommand::kVersionRequest);
  EXPECT_EQ(make_packet(NodeInfo{}).command, FtCommand::kNodeInfo);
  EXPECT_EQ(make_packet(AddShare{}).command, FtCommand::kAddShare);
  EXPECT_EQ(make_packet(SearchRequest{}).command, FtCommand::kSearchRequest);
  EXPECT_EQ(make_packet(PushRequest{}).command, FtCommand::kPushRequest);
}

}  // namespace
}  // namespace p2p::openft
