// Fault-layer corruption fuzz: FaultInjector::on_send_keyed is exactly the
// hook a faulted sim::Network applies to frames in flight, so both protocol
// parsers must survive its output — parse to nullopt or to valid data,
// never crash. Runs in the fuzz binary (ctest label: fuzz) so the
// sanitizer tier scales the loops up via P2P_FUZZ_ROUNDS.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "gnutella/message.h"
#include "openft/packet.h"
#include "tests/fuzz_rounds.h"
#include "util/rng.h"

namespace p2p {
namespace {

// An injector that corrupts every message it sees: the worst case of its
// in-flight mutation.
fault::FaultSpec always_corrupt() {
  fault::FaultSpec spec;
  spec.payload_corrupt = 1.0;
  return spec;
}

// One in-flight corruption of `wire` as the network applies it, keyed like
// a send: each round is a distinct message.
util::Bytes corrupt(fault::FaultInjector& injector, const util::Bytes& wire,
                    std::uint64_t key) {
  util::Payload payload{util::Bytes(wire)};
  (void)injector.on_send_keyed(payload, key);
  return payload.to_bytes();
}

class FaultCorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultCorruptionFuzz, GnutellaParserSurvivesInjectedCorruption) {
  util::Rng rng(GetParam() ^ 0xc0de);
  fault::FaultInjector injector(always_corrupt(), GetParam());
  gnutella::QueryHit hit;
  hit.servent_guid = gnutella::Guid::random(rng);
  gnutella::QueryHitResult r;
  r.filename = "payload sample.exe";
  rng.fill(r.sha1);
  hit.results.push_back(r);
  auto wire = gnutella::serialize(
      gnutella::make_query_hit(gnutella::Guid::random(rng), 4, hit)).to_bytes();

  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes mutated = corrupt(injector, wire, static_cast<std::uint64_t>(round));
    ASSERT_NE(mutated, wire);
    EXPECT_NO_THROW({ auto parsed = gnutella::parse(mutated); (void)parsed; });
  }
}

TEST_P(FaultCorruptionFuzz, OpenFtParserSurvivesInjectedCorruption) {
  util::Rng rng(GetParam() ^ 0x0f7);
  fault::FaultInjector injector(always_corrupt(), GetParam() ^ 0x9e3779b9);
  openft::SearchResponse resp;
  resp.search_id = rng.next();
  resp.owner = {util::Ipv4(10, 1, 2, 3), 1216};
  resp.path = "/shared/payload sample.exe";
  rng.fill(resp.md5);
  auto wire = openft::serialize(openft::make_packet(resp)).to_bytes();

  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes mutated = corrupt(injector, wire, static_cast<std::uint64_t>(round));
    ASSERT_NE(mutated, wire);
    EXPECT_NO_THROW({ auto parsed = openft::parse(mutated); (void)parsed; });
  }
}

TEST_P(FaultCorruptionFuzz, CorruptionAlwaysChangesBytesAndKeepsSize) {
  fault::FaultInjector injector(always_corrupt(), GetParam() ^ 0x5eed);
  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    util::Bytes original(1 + (round % 64), static_cast<std::uint8_t>(round));
    util::Bytes mutated =
        corrupt(injector, original, static_cast<std::uint64_t>(round));
    EXPECT_EQ(mutated.size(), original.size());
    EXPECT_NE(mutated, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultCorruptionFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace p2p
