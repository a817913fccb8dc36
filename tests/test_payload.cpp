#include "util/payload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace p2p::util {
namespace {

Bytes some_bytes() { return Bytes{0x01, 0x02, 0x03, 0x04, 0x05}; }

TEST(Payload, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.use_count(), 0u);
}

// The refcount and the bytes share one block, so a vector is copied in,
// never adopted.
TEST(Payload, CopiesVectorIntoOneBlock) {
  const Bytes src = some_bytes();
  Payload p{src};
  EXPECT_EQ(p.size(), 5u);
  EXPECT_NE(p.data(), src.data());
  EXPECT_TRUE(std::equal(p.begin(), p.end(), src.begin(), src.end()));
  EXPECT_EQ(p.use_count(), 1u);
}

TEST(Payload, EncodePayloadAppendsTheTailInOneBlock) {
  const Bytes tail{0xaa, 0xbb};
  Payload p = encode_payload(
      [](ByteWriter& w) {
        w.u16be(0x0102);
        w.str("x");
      },
      tail);
  EXPECT_EQ(p.to_bytes(), (Bytes{0x01, 0x02, 'x', 0xaa, 0xbb}));
  EXPECT_EQ(p.use_count(), 1u);
  // The per-thread writer starts empty for every message.
  EXPECT_EQ(encode_payload([](ByteWriter& w) { w.u8(9); }).to_bytes(), Bytes{9});
}

TEST(Payload, EmptyVectorMakesNoRep) {
  Payload p{Bytes{}};
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.use_count(), 0u);
}

TEST(Payload, CopiesAliasTheSameBuffer) {
  Payload a{some_bytes()};
  Payload b = a;
  Payload c = b;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.data(), c.data());
  EXPECT_EQ(a.use_count(), 3u);
  c = Payload{};
  EXPECT_EQ(a.use_count(), 2u);
}

TEST(Payload, MoveStealsWithoutRefcountTraffic) {
  Payload a{some_bytes()};
  const std::uint8_t* data = a.data();
  Payload b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.use_count(), 1u);
}

TEST(Payload, SelfAssignmentIsSafe) {
  Payload a{some_bytes()};
  Payload& alias = a;
  a = alias;
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a.size(), 5u);
}

TEST(Payload, CopyAssignBetweenAliasesKeepsBufferAlive) {
  Payload a{some_bytes()};
  Payload b = a;
  b = a;  // same rep on both sides
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Payload, MutateUniqueWritesInPlace) {
  Payload a{some_bytes()};
  const std::uint8_t* before = a.data();
  auto view = a.mutate();
  view[0] = 0xff;
  EXPECT_EQ(a.data(), before);  // sole owner: no clone
  EXPECT_EQ(a[0], 0xff);
}

TEST(Payload, MutateSharedClonesAndLeavesSiblingsUntouched) {
  Payload a{some_bytes()};
  Payload b = a;
  Payload dup = a;  // the fault-duplicate shares too
  auto view = a.mutate();
  view[0] = 0xee;
  EXPECT_EQ(a[0], 0xee);
  EXPECT_EQ(b[0], 0x01);    // broadcast sibling unchanged
  EXPECT_EQ(dup[0], 0x01);  // duplicate delivery unchanged
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 2u);
}

TEST(Payload, SpanAndIterationSeeTheBytes) {
  Payload p{some_bytes()};
  std::span<const std::uint8_t> s = p;  // implicit, as parsers receive it
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[2], 0x03);
  Bytes round(p.begin(), p.end());
  EXPECT_EQ(round, some_bytes());
  EXPECT_EQ(p.to_bytes(), some_bytes());
}

TEST(Payload, EqualityComparesBytesAcrossDistinctBuffers) {
  Payload a{some_bytes()};
  Payload b{some_bytes()};
  Payload c{Bytes{9, 9}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  Payload alias = a;
  EXPECT_TRUE(a == alias);  // rep shortcut
}

TEST(Payload, CopyFactoryDuplicatesForeignSpans) {
  Bytes src = some_bytes();
  Payload p = Payload::copy({src.data(), src.size()});
  EXPECT_NE(p.data(), src.data());
  src[0] = 0x77;
  EXPECT_EQ(p[0], 0x01);
}

// The sweep runner destroys whole studies (and every captured payload) on
// pool threads; the refcount must survive concurrent copy/destroy traffic.
// Run under the TSan tier to prove the atomics are sufficient.
TEST(Payload, RefcountSurvivesConcurrentCopyDestroy) {
  Payload shared{some_bytes()};
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared] {
      for (int i = 0; i < kIters; ++i) {
        Payload local = shared;
        Payload moved = std::move(local);
        EXPECT_EQ(moved.size(), 5u);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(shared.use_count(), 1u);
  EXPECT_EQ(shared[0], 0x01);
}

}  // namespace
}  // namespace p2p::util
