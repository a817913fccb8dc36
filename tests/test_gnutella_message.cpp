#include "gnutella/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace p2p::gnutella {
namespace {

Guid guid_of(std::uint64_t seed) {
  util::Rng rng(seed);
  return Guid::random(rng);
}

TEST(Guid, RandomSetsModernMarkers) {
  Guid g = guid_of(1);
  EXPECT_EQ(g.bytes[8], 0xff);
  EXPECT_EQ(g.bytes[15], 0x00);
}

TEST(Guid, HexIs32Chars) { EXPECT_EQ(guid_of(1).hex().size(), 32u); }

TEST(Guid, HashDistinguishes) {
  GuidHash h;
  EXPECT_NE(h(guid_of(1)), h(guid_of(2)));
  EXPECT_EQ(h(guid_of(3)), h(guid_of(3)));
}

// Any single-byte change, at any position and to any other value, changes
// the hash.
TEST(Guid, HashSeesEverySingleByteChange) {
  GuidHash h;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Guid base = guid_of(seed);
    const std::size_t base_hash = h(base);
    for (std::size_t pos = 0; pos < base.bytes.size(); ++pos) {
      for (unsigned delta = 1; delta < 256; ++delta) {
        Guid changed = base;
        changed.bytes[pos] = static_cast<std::uint8_t>(changed.bytes[pos] ^ delta);
        ASSERT_NE(h(changed), base_hash) << "seed " << seed << ", byte " << pos
                                         << ", xor " << delta;
      }
    }
  }
}

// 100k random GUIDs over 2^16 buckets (mean load 1.53): a Poisson spread
// tops out near 9, so a max load above 12 means the hash is clumping.
TEST(Guid, HashSpreadsRandomGuids) {
  GuidHash h;
  util::Rng rng(99);
  std::vector<std::uint32_t> buckets(1u << 16, 0);
  for (int i = 0; i < 100'000; ++i) ++buckets[h(Guid::random(rng)) & 0xffffu];
  std::uint32_t max_load = *std::max_element(buckets.begin(), buckets.end());
  EXPECT_LE(max_load, 12u);
  std::size_t empty = static_cast<std::size_t>(std::count(buckets.begin(), buckets.end(), 0u));
  // e^-1.53 of 65,536 buckets, about 14.2k, stay empty under a uniform spread.
  EXPECT_GT(empty, 13'000u);
  EXPECT_LT(empty, 15'500u);
}

TEST(Message, PingRoundTrip) {
  Message ping = make_ping(guid_of(1), 7);
  auto parsed = parse(serialize(ping));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type(), MsgType::kPing);
  EXPECT_EQ(parsed->header.guid, ping.header.guid);
  EXPECT_EQ(parsed->header.ttl, 7);
  EXPECT_EQ(parsed->header.hops, 0);
}

TEST(Message, PongRoundTrip) {
  Pong pong;
  pong.addr = {util::Ipv4(10, 20, 30, 40), 6346};
  pong.file_count = 123;
  pong.kb_shared = 4567;
  auto parsed = parse(serialize(make_pong(guid_of(2), 5, pong)));
  ASSERT_TRUE(parsed.has_value());
  const auto& p = std::get<Pong>(parsed->payload);
  EXPECT_EQ(p.addr.ip.str(), "10.20.30.40");
  EXPECT_EQ(p.addr.port, 6346);
  EXPECT_EQ(p.file_count, 123u);
  EXPECT_EQ(p.kb_shared, 4567u);
}

TEST(Message, QueryRoundTrip) {
  auto parsed = parse(serialize(make_query(guid_of(3), 4, "blue horizon mp3", 56)));
  ASSERT_TRUE(parsed.has_value());
  const auto& q = std::get<Query>(parsed->payload);
  EXPECT_EQ(q.criteria, "blue horizon mp3");
  EXPECT_EQ(q.min_speed, 56);
}

TEST(Message, QueryHitRoundTripWithSha1) {
  QueryHit hit;
  hit.addr = {util::Ipv4(192, 168, 1, 5), 12345};
  hit.speed = 384;
  hit.needs_push = true;
  hit.servent_guid = guid_of(9);
  QueryHitResult r1;
  r1.index = 42;
  r1.size = 58'368;
  r1.filename = "some file with spaces.exe";
  for (std::size_t i = 0; i < r1.sha1.size(); ++i) {
    r1.sha1[i] = static_cast<std::uint8_t>(i);
  }
  hit.results.push_back(r1);
  QueryHitResult r2;
  r2.index = 7;
  r2.size = 1000;
  r2.filename = "b.zip";
  hit.results.push_back(r2);

  auto parsed = parse(serialize(make_query_hit(guid_of(4), 3, hit)));
  ASSERT_TRUE(parsed.has_value());
  const auto& h = std::get<QueryHit>(parsed->payload);
  EXPECT_EQ(h.addr.ip.str(), "192.168.1.5");
  EXPECT_TRUE(h.needs_push);
  EXPECT_EQ(h.servent_guid, hit.servent_guid);
  ASSERT_EQ(h.results.size(), 2u);
  EXPECT_EQ(h.results[0].index, 42u);
  EXPECT_EQ(h.results[0].size, 58'368u);
  EXPECT_EQ(h.results[0].filename, "some file with spaces.exe");
  EXPECT_EQ(h.results[0].sha1, r1.sha1);
  EXPECT_EQ(h.results[1].filename, "b.zip");
}

TEST(Message, QueryHitPushFlagOff) {
  QueryHit hit;
  hit.servent_guid = guid_of(9);
  auto parsed = parse(serialize(make_query_hit(guid_of(4), 3, hit)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(std::get<QueryHit>(parsed->payload).needs_push);
}

TEST(Message, PushRoundTrip) {
  Push push;
  push.servent_guid = guid_of(5);
  push.file_index = 99;
  push.requester = {util::Ipv4(156, 56, 1, 10), 6346};
  auto parsed = parse(serialize(make_push(guid_of(6), 7, push)));
  ASSERT_TRUE(parsed.has_value());
  const auto& p = std::get<Push>(parsed->payload);
  EXPECT_EQ(p.servent_guid, push.servent_guid);
  EXPECT_EQ(p.file_index, 99u);
  EXPECT_EQ(p.requester.ip.str(), "156.56.1.10");
}

TEST(Message, QrpResetRoundTrip) {
  auto parsed = parse(serialize(make_qrp_reset(guid_of(7), 13)));
  ASSERT_TRUE(parsed.has_value());
  const auto& qrp = std::get<Qrp>(parsed->payload);
  ASSERT_TRUE(std::holds_alternative<QrpReset>(qrp.op));
  EXPECT_EQ(std::get<QrpReset>(qrp.op).table_bits, 13u);
}

TEST(Message, QrpPatchRoundTrip) {
  util::Bytes bits(64);
  bits[5] = 1;
  bits[63] = 1;
  auto parsed = parse(serialize(make_qrp_patch(guid_of(8), bits)));
  ASSERT_TRUE(parsed.has_value());
  const auto& qrp = std::get<Qrp>(parsed->payload);
  ASSERT_TRUE(std::holds_alternative<QrpPatch>(qrp.op));
  EXPECT_EQ(std::get<QrpPatch>(qrp.op).bits, bits);
}

TEST(Message, RejectsUnknownType) {
  Message ping = make_ping(guid_of(1), 7);
  auto wire = serialize(ping).to_bytes();
  wire[16] = 0x77;  // type byte
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Message, RejectsBadPayloadLength) {
  auto wire = serialize(make_ping(guid_of(1), 7)).to_bytes();
  wire[19] = 5;  // claim 5 payload bytes that aren't there
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Message, RejectsTruncatedHeader) {
  util::Bytes wire(10, 0);
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Message, RejectsTruncatedQueryHit) {
  QueryHit hit;
  hit.servent_guid = guid_of(9);
  QueryHitResult r;
  r.filename = "x.exe";
  hit.results.push_back(r);
  auto wire = serialize(make_query_hit(guid_of(4), 3, hit)).to_bytes();
  wire.resize(wire.size() - 10);
  // Truncated: payload length mismatch.
  EXPECT_FALSE(parse(wire).has_value());
}

TEST(Message, HeaderPreservesTtlAndHops) {
  Message q = make_query(guid_of(3), 4, "x");
  q.header.hops = 2;
  q.header.ttl = 2;
  auto parsed = parse(serialize(q));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.ttl, 2);
  EXPECT_EQ(parsed->header.hops, 2);
}

// Round-trip sweep over query strings with odd characters.
class QueryCriteriaSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryCriteriaSweep, Survives) {
  auto parsed = parse(serialize(make_query(guid_of(10), 4, GetParam())));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<Query>(parsed->payload).criteria, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Criteria, QueryCriteriaSweep,
                         ::testing::Values("", "a", "multi word query",
                                           "punct!@#$%^&*()", "UPPER lower",
                                           "trailing space "));

}  // namespace
}  // namespace p2p::gnutella
