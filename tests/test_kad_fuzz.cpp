// KAD wire-format fuzzing: randomized round trips, byte-mutation sweeps,
// and garbage input. The codec must never crash or over-allocate, and
// valid packets must re-encode canonically. Loops scale with
// P2P_FUZZ_ROUNDS like the rest of the fuzz binary (see ci/run_tiers.sh).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kad/message.h"
#include "tests/fuzz_rounds.h"
#include "util/rng.h"

namespace p2p {
namespace {

kad::KadId random_kad_id(util::Rng& rng) {
  return kad::KadId{rng.next(), rng.next()};
}

kad::Contact random_contact(util::Rng& rng) {
  kad::Contact c;
  c.id = random_kad_id(rng);
  c.addr = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
            static_cast<std::uint16_t>(rng.bounded(65536))};
  c.firewalled = rng.chance(0.3);
  return c;
}

kad::SourceEntry random_entry(util::Rng& rng) {
  kad::SourceEntry e;
  e.keyword = random_kad_id(rng);
  std::size_t len = rng.index(60);
  for (std::size_t i = 0; i < len; ++i) {
    e.filename.push_back(static_cast<char>(32 + rng.index(95)));
  }
  e.size = rng.next();
  rng.fill(e.md5);
  e.owner = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
             static_cast<std::uint16_t>(rng.bounded(65536))};
  e.firewalled = rng.chance(0.5);
  return e;
}

kad::KadPacket random_packet(util::Rng& rng) {
  switch (rng.index(11)) {
    case 0:
      return kad::make_packet(kad::Ping{random_contact(rng)});
    case 1:
      return kad::make_packet(kad::Pong{random_contact(rng)});
    case 2:
      return kad::make_packet(
          kad::FindNode{random_contact(rng), random_kad_id(rng)});
    case 3: {
      kad::FindNodeReply r;
      std::size_t n = rng.index(kad::kMaxContacts + 1);
      for (std::size_t i = 0; i < n; ++i) r.contacts.push_back(random_contact(rng));
      return kad::make_packet(std::move(r));
    }
    case 4:
      return kad::make_packet(
          kad::FindValue{random_contact(rng), random_kad_id(rng)});
    case 5: {
      kad::FindValueReply r;
      std::size_t e = rng.index(8), c = rng.index(8);
      for (std::size_t i = 0; i < e; ++i) r.entries.push_back(random_entry(rng));
      for (std::size_t i = 0; i < c; ++i) r.contacts.push_back(random_contact(rng));
      return kad::make_packet(std::move(r));
    }
    case 6: {
      kad::Store s;
      s.sender = random_contact(rng);
      std::size_t n = rng.index(8) + 1;
      for (std::size_t i = 0; i < n; ++i) s.entries.push_back(random_entry(rng));
      return kad::make_packet(std::move(s));
    }
    case 7:
      return kad::make_packet(
          kad::StoreReply{static_cast<std::uint32_t>(rng.next())});
    case 8: {
      kad::ServerRegister r;
      r.owner = {util::Ipv4(static_cast<std::uint32_t>(rng.next())),
                 static_cast<std::uint16_t>(rng.bounded(65536))};
      r.firewalled = rng.chance(0.5);
      std::size_t n = rng.index(6);
      for (std::size_t i = 0; i < n; ++i) r.entries.push_back(random_entry(rng));
      return kad::make_packet(std::move(r));
    }
    case 9: {
      kad::ServerQuery q;
      q.query_id = rng.next();
      std::size_t len = rng.index(40);
      for (std::size_t i = 0; i < len; ++i) {
        q.query.push_back(static_cast<char>(32 + rng.index(95)));
      }
      return kad::make_packet(std::move(q));
    }
    default: {
      kad::ServerQueryReply r;
      r.query_id = rng.next();
      std::size_t n = rng.index(6);
      for (std::size_t i = 0; i < n; ++i) r.entries.push_back(random_entry(rng));
      return kad::make_packet(std::move(r));
    }
  }
}

class KadRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KadRoundTripFuzz, RandomPacketsSurviveCanonically) {
  util::Rng rng(GetParam() * 7919);
  int rounds = fuzz_rounds(50);
  for (int i = 0; i < rounds; ++i) {
    kad::KadPacket pkt = random_packet(rng);
    auto wire = kad::serialize(pkt);
    auto parsed = kad::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->command, pkt.command);
    // Canonical: re-encoding the parse reproduces the original bytes.
    EXPECT_EQ(kad::serialize(*parsed), wire);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KadRoundTripFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

class KadMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KadMutationFuzz, MutatedPacketsNeverCrashTheParser) {
  util::Rng rng(GetParam() * 104729);
  int rounds = fuzz_rounds(80);
  for (int i = 0; i < rounds; ++i) {
    auto wire = kad::serialize(random_packet(rng));
    util::Bytes mutated = wire.to_bytes();
    std::size_t flips = rng.index(8) + 1;
    for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    if (rng.chance(0.3)) mutated.resize(rng.index(mutated.size() + 1));
    EXPECT_NO_THROW({ auto r = kad::parse(mutated); (void)r; });
  }
}

TEST_P(KadMutationFuzz, RandomBytesNeverCrashTheParser) {
  util::Rng rng(GetParam() * 6151);
  int rounds = fuzz_rounds(80);
  for (int i = 0; i < rounds; ++i) {
    util::Bytes garbage(rng.index(512));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.index(256));
    EXPECT_NO_THROW({ auto r = kad::parse(garbage); (void)r; });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KadMutationFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace p2p
