// Wire-format robustness: randomized round-trip sweeps and mutation fuzzing
// of both protocols' codecs. Parsers must never crash, and valid messages
// must always survive serialization exactly.
//
// Runs in its own binary (ctest label: fuzz) so the sanitizer tier can
// re-run just this suite with the loops scaled up via P2P_FUZZ_ROUNDS
// (see ci/run_tiers.sh).
#include <gtest/gtest.h>

#include "gnutella/message.h"
#include "openft/packet.h"
#include "tests/fuzz_rounds.h"
#include "util/rng.h"

namespace p2p {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_len) {
  // NUL-free printable-ish text (NUL is the wire terminator).
  std::size_t len = rng.index(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(32 + rng.index(95)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Gnutella: randomized round trips
// ---------------------------------------------------------------------------

class GnutellaRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GnutellaRoundTripFuzz, QueryHitSurvives) {
  util::Rng rng(GetParam());
  gnutella::QueryHit hit;
  hit.addr = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
              static_cast<std::uint16_t>(rng.bounded(65536))};
  hit.speed = static_cast<std::uint32_t>(rng.next());
  hit.needs_push = rng.chance(0.5);
  hit.servent_guid = gnutella::Guid::random(rng);
  std::size_t n = rng.index(12) + 1;
  for (std::size_t i = 0; i < n; ++i) {
    gnutella::QueryHitResult r;
    r.index = static_cast<std::uint32_t>(rng.next());
    r.size = static_cast<std::uint32_t>(rng.next());
    r.filename = random_text(rng, 80);
    rng.fill(r.sha1);
    hit.results.push_back(std::move(r));
  }
  auto msg = gnutella::make_query_hit(gnutella::Guid::random(rng),
                                      static_cast<std::uint8_t>(rng.range(1, 7)), hit);
  msg.header.hops = static_cast<std::uint8_t>(rng.range(0, 7));
  auto parsed = gnutella::parse(gnutella::serialize(msg));
  ASSERT_TRUE(parsed.has_value());
  const auto& out = std::get<gnutella::QueryHit>(parsed->payload);
  ASSERT_EQ(out.results.size(), hit.results.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.results[i].index, hit.results[i].index);
    EXPECT_EQ(out.results[i].size, hit.results[i].size);
    EXPECT_EQ(out.results[i].filename, hit.results[i].filename);
    EXPECT_EQ(out.results[i].sha1, hit.results[i].sha1);
  }
  EXPECT_EQ(out.needs_push, hit.needs_push);
  EXPECT_EQ(out.servent_guid, hit.servent_guid);
  EXPECT_EQ(parsed->header.ttl, msg.header.ttl);
  EXPECT_EQ(parsed->header.hops, msg.header.hops);
}

TEST_P(GnutellaRoundTripFuzz, QuerySurvives) {
  util::Rng rng(GetParam() ^ 0xfeed);
  auto msg = gnutella::make_query(gnutella::Guid::random(rng), 4,
                                  random_text(rng, 120),
                                  static_cast<std::uint16_t>(rng.bounded(65536)));
  auto parsed = gnutella::parse(gnutella::serialize(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(std::get<gnutella::Query>(parsed->payload).criteria,
            std::get<gnutella::Query>(msg.payload).criteria);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GnutellaRoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Mutation fuzz: corrupted wires must parse to nullopt or valid data, never
// crash or throw past the parser.
// ---------------------------------------------------------------------------

class MutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationFuzz, GnutellaParserNeverThrows) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  gnutella::QueryHit hit;
  hit.servent_guid = gnutella::Guid::random(rng);
  gnutella::QueryHitResult r;
  r.filename = "sample file.exe";
  hit.results.push_back(r);
  auto wire = gnutella::serialize(
      gnutella::make_query_hit(gnutella::Guid::random(rng), 4, hit));

  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes mutated = wire.to_bytes();
    std::size_t flips = rng.index(5) + 1;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(rng.bounded(255) + 1);
    }
    if (rng.chance(0.3)) mutated.resize(rng.index(mutated.size() + 1));
    EXPECT_NO_THROW({ auto result = gnutella::parse(mutated); (void)result; });
  }
}

TEST_P(MutationFuzz, OpenFtParserNeverThrows) {
  util::Rng rng(GetParam() ^ 0x123456);
  openft::SearchResponse resp;
  resp.search_id = rng.next();
  resp.owner = {util::Ipv4(1, 2, 3, 4), 1216};
  resp.path = "/shared/some file.exe";
  auto wire = openft::serialize(openft::make_packet(resp));

  const int rounds = fuzz_rounds(200);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes mutated = wire.to_bytes();
    std::size_t flips = rng.index(5) + 1;
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(rng.bounded(255) + 1);
    }
    if (rng.chance(0.3)) mutated.resize(rng.index(mutated.size() + 1));
    EXPECT_NO_THROW({ auto result = openft::parse(mutated); (void)result; });
  }
}

TEST_P(MutationFuzz, RandomBytesNeverParseAsProtocol) {
  util::Rng rng(GetParam() ^ 0x777);
  // Pure random buffers virtually never form a valid descriptor (the
  // length field must match exactly and the type byte must be known).
  int gnutella_accepts = 0;
  int openft_accepts = 0;
  const int rounds = fuzz_rounds(100);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes junk(rng.index(200) + 1);
    rng.fill(junk);
    if (gnutella::parse(junk).has_value()) ++gnutella_accepts;
    if (openft::parse(junk).has_value()) ++openft_accepts;
  }
  EXPECT_LE(gnutella_accepts, 1);
  EXPECT_LE(openft_accepts, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// OpenFT randomized round trips
// ---------------------------------------------------------------------------

class OpenFtRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpenFtRoundTripFuzz, SearchResponseSurvives) {
  util::Rng rng(GetParam() ^ 0x0f7f7);
  openft::SearchResponse resp;
  resp.search_id = rng.next();
  resp.owner = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
                static_cast<std::uint16_t>(rng.bounded(65536))};
  resp.owner_http_port = static_cast<std::uint16_t>(rng.bounded(65536));
  rng.fill(resp.md5);
  resp.size = static_cast<std::uint32_t>(rng.next());
  resp.path = "/shared/" + random_text(rng, 60);
  resp.availability = static_cast<std::uint16_t>(rng.bounded(65536));
  resp.owner_firewalled = rng.chance(0.5);

  auto parsed = openft::parse(openft::serialize(openft::make_packet(resp)));
  ASSERT_TRUE(parsed.has_value());
  const auto& out = std::get<openft::SearchResponse>(parsed->payload);
  EXPECT_EQ(out.search_id, resp.search_id);
  EXPECT_EQ(out.owner, resp.owner);
  EXPECT_EQ(out.owner_http_port, resp.owner_http_port);
  EXPECT_EQ(out.md5, resp.md5);
  EXPECT_EQ(out.size, resp.size);
  EXPECT_EQ(out.path, resp.path);
  EXPECT_EQ(out.availability, resp.availability);
  EXPECT_EQ(out.owner_firewalled, resp.owner_firewalled);
}

TEST_P(OpenFtRoundTripFuzz, AddShareSurvives) {
  util::Rng rng(GetParam() ^ 0x55);
  openft::AddShare share;
  rng.fill(share.md5);
  share.size = static_cast<std::uint32_t>(rng.next());
  share.path = "/shared/" + random_text(rng, 100);
  auto parsed = openft::parse(openft::serialize(openft::make_packet(share)));
  ASSERT_TRUE(parsed.has_value());
  const auto& out = std::get<openft::AddShare>(parsed->payload);
  EXPECT_EQ(out.md5, share.md5);
  EXPECT_EQ(out.size, share.size);
  EXPECT_EQ(out.path, share.path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpenFtRoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace p2p
