// Allocation budget of the wire codecs, counted by bench/alloc_count.cpp's
// global operator new: encoding any message costs exactly one heap block
// (its util::Payload), parsing the fixed-size descriptors costs none, and
// keyword matching never allocates. Each measurement runs its operation
// once first, so the per-thread encode writer is already warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench/alloc_count.h"
#include "files/transfer.h"
#include "gnutella/http.h"
#include "gnutella/message.h"
#include "kad/message.h"
#include "openft/packet.h"
#include "util/strings.h"

namespace p2p {
namespace {

/// Allocations made by the second of two calls to `op`.
template <typename Op>
std::uint64_t allocations(Op&& op) {
  op();
  const bench::AllocSnapshot start = bench::alloc_now();
  op();
  return bench::alloc_since(start).calls;
}

gnutella::Guid guid(std::uint8_t fill) {
  gnutella::Guid g;
  g.bytes.fill(fill);
  return g;
}

std::vector<gnutella::Message> gnutella_messages() {
  using namespace gnutella;
  QueryHit hit;
  hit.servent_guid = guid(9);
  for (std::uint32_t i = 0; i < 3; ++i) {
    hit.results.push_back({i, 100 * i, "a file name long enough to leave SSO.mp3", {}});
  }
  return {make_ping(guid(1), 7),
          make_pong(guid(2), 7, Pong{{util::Ipv4(1, 2, 3, 4), 6346}, 10, 20}),
          make_bye(guid(3), 200, "closing the overlay link now"),
          make_query(guid(4), 7, "a query long enough to leave SSO"),
          make_query_hit(guid(5), 7, hit),
          make_push(guid(6), 7, Push{guid(7), 3, {util::Ipv4(5, 6, 7, 8), 6346}}),
          make_qrp_reset(guid(8), 13),
          make_qrp_patch(guid(9), util::Bytes(1u << 13, 1))};
}

TEST(AllocBudget, GnutellaSerializeIsOneAllocation) {
  for (const auto& msg : gnutella_messages()) {
    EXPECT_EQ(allocations([&] { (void)gnutella::serialize(msg); }), 1u)
        << "type " << static_cast<int>(msg.type());
    gnutella::Header fwd = msg.header;
    ++fwd.hops;
    EXPECT_EQ(allocations([&] { (void)gnutella::serialize(fwd, msg.payload); }), 1u)
        << "forwarded type " << static_cast<int>(msg.type());
  }
}

TEST(AllocBudget, KadSerializeIsOneAllocation) {
  kad::SourceEntry entry;
  entry.filename = "a file name long enough to leave SSO.mp3";
  const std::vector<kad::KadPayload> payloads = {
      kad::Ping{},          kad::Pong{},
      kad::FindNode{},      kad::FindNodeReply{{kad::Contact{}, kad::Contact{}}},
      kad::FindValue{},     kad::FindValueReply{{entry}, {kad::Contact{}}},
      kad::Store{{}, {entry, entry}}, kad::StoreReply{2},
      kad::ServerRegister{{}, false, {entry}},
      kad::ServerQuery{1, "a query long enough to leave SSO"},
      kad::ServerQueryReply{1, {entry}}};
  for (const auto& payload : payloads) {
    const kad::KadPacket pkt = kad::make_packet(payload);
    EXPECT_EQ(allocations([&] { (void)kad::serialize(pkt); }), 1u)
        << "command " << static_cast<int>(pkt.command);
  }
}

TEST(AllocBudget, OpenFtSerializeIsOneAllocation) {
  const std::string path = "/shared/a file name long enough to leave SSO.mp3";
  const std::vector<openft::FtPayload> payloads = {
      openft::VersionRequest{},  openft::VersionResponse{0, 2, 1, 6},
      openft::NodeInfo{openft::kUser, {}, 1216, "an alias long enough to leave SSO"},
      openft::SessionRequest{},  openft::SessionResponse{true},
      openft::ChildRequest{},    openft::ChildResponse{true},
      openft::AddShare{{}, 10, path}, openft::RemShare{},
      openft::SearchRequest{1, 2, "a query long enough to leave SSO"},
      openft::SearchResponse{1, {}, 1216, {}, 10, path, 1, false},
      openft::SearchEnd{1},      openft::PushRequest{},
      openft::Stats{1, 2, 3},    openft::BrowseRequest{1},
      openft::BrowseResponse{1, {}, 10, path}, openft::BrowseEnd{1, 2}};
  for (const auto& payload : payloads) {
    const openft::FtPacket pkt = openft::make_packet(payload);
    EXPECT_EQ(allocations([&] { (void)openft::serialize(pkt); }), 1u)
        << "command " << static_cast<int>(pkt.command);
  }
}

TEST(AllocBudget, TransferEncodersAreOneAllocation) {
  const gnutella::HttpRequest get =
      gnutella::make_get_request(7, "a file name long enough to leave SSO.mp3");
  EXPECT_EQ(allocations([&] { (void)get.serialize(); }), 1u);

  gnutella::HttpResponse resp;
  resp.headers = {{"Server", "P2PMAL/1.0"}, {"Content-Type", "application/binary"}};
  resp.body = util::Bytes(100'000, 0x4d);
  EXPECT_EQ(allocations([&] { (void)resp.serialize(); }), 1u);

  gnutella::GivLine giv;
  giv.index = 3;
  giv.filename = "a file name long enough to leave SSO.mp3";
  EXPECT_EQ(allocations([&] { (void)giv.serialize(); }), 1u);

  const files::Digest16 md5{};
  EXPECT_EQ(allocations([&] { (void)files::make_get(md5); }), 1u);
  EXPECT_EQ(allocations([&] { (void)files::make_response(200, &resp.body); }), 1u);
  EXPECT_EQ(allocations([&] { (void)files::make_response(404, nullptr); }), 1u);
}

TEST(AllocBudget, FixedSizeParsesAllocateNothing) {
  const auto messages = gnutella_messages();
  for (const auto& msg : messages) {
    if (msg.type() != gnutella::MsgType::kPing && msg.type() != gnutella::MsgType::kPong &&
        msg.type() != gnutella::MsgType::kPush) {
      continue;
    }
    const util::Payload wire = gnutella::serialize(msg);
    bool ok = false;
    EXPECT_EQ(allocations([&] { ok = gnutella::parse(wire).has_value(); }), 0u)
        << "type " << static_cast<int>(msg.type());
    EXPECT_TRUE(ok);
  }
  const util::Payload kad_ping = kad::serialize(kad::make_packet(kad::Ping{}));
  bool ok = false;
  EXPECT_EQ(allocations([&] { ok = kad::parse(kad_ping).has_value(); }), 0u);
  EXPECT_TRUE(ok);
}

TEST(AllocBudget, KeywordMatchAllocatesNothing) {
  const std::string query = "Blue Horizon midnight RAIN live";
  const std::string text = "blue horizon - midnight rain (live) 2006 remastered.mp3";
  bool hit = false;
  bool miss = true;
  EXPECT_EQ(allocations([&] {
              hit = util::keyword_match(query, text);
              miss = util::keyword_match("horizon sunrise", text);
            }),
            0u);
  EXPECT_TRUE(hit);
  EXPECT_FALSE(miss);
}

}  // namespace
}  // namespace p2p
