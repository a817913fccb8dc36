#include "gnutella/qrp.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace p2p::gnutella {
namespace {

TEST(QrpHash, DeterministicAndCaseInsensitive) {
  EXPECT_EQ(qrp_hash("hello", 13), qrp_hash("hello", 13));
  EXPECT_EQ(qrp_hash("HELLO", 13), qrp_hash("hello", 13));
}

TEST(QrpHash, StaysInTable) {
  for (unsigned bits : {4u, 8u, 13u, 16u}) {
    for (const char* word : {"a", "abc", "longerkeyword", "1234567890"}) {
      EXPECT_LT(qrp_hash(word, bits), 1u << bits);
    }
  }
}

TEST(QrpHash, SpreadsValues) {
  std::set<std::uint32_t> values;
  const char* words[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta",  "eta",  "theta", "iota",  "kappa"};
  for (const char* w : words) values.insert(qrp_hash(w, 16));
  EXPECT_GE(values.size(), 9u);  // collisions in 64k slots should be rare
}

TEST(QrpHash, RejectsBadBits) {
  EXPECT_THROW((void)qrp_hash("x", 0), std::invalid_argument);
  EXPECT_THROW((void)qrp_hash("x", 32), std::invalid_argument);
}

TEST(QueryRouteTable, EmptyMatchesNothing) {
  QueryRouteTable qrt(13);
  EXPECT_FALSE(qrt.matches("anything at all"));
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 0.0);
}

TEST(QueryRouteTable, MatchesAfterAddingKeywords) {
  QueryRouteTable qrt(13);
  qrt.add_keywords("blue horizon - midnight rain.mp3");
  EXPECT_TRUE(qrt.matches("blue horizon"));
  EXPECT_TRUE(qrt.matches("midnight rain"));
  EXPECT_TRUE(qrt.matches("blue"));
  EXPECT_FALSE(qrt.matches("completely unrelated"));
}

TEST(QueryRouteTable, AllKeywordsRequired) {
  QueryRouteTable qrt(13);
  qrt.add_keywords("blue horizon");
  // "blue" is present but "unrelatedword" is not.
  EXPECT_FALSE(qrt.matches("blue unrelatedword"));
}

TEST(QueryRouteTable, FillAllMatchesEverything) {
  QueryRouteTable qrt(13);
  qrt.fill_all();
  EXPECT_TRUE(qrt.matches("anything"));
  EXPECT_TRUE(qrt.matches("zzz qqq xxx"));
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 1.0);
}

TEST(QueryRouteTable, ClearResets) {
  QueryRouteTable qrt(13);
  qrt.add_keywords("something shared");
  qrt.clear();
  EXPECT_FALSE(qrt.matches("something"));
}

TEST(QueryRouteTable, EmptyQueryNeverMatches) {
  QueryRouteTable qrt(13);
  qrt.fill_all();
  EXPECT_FALSE(qrt.matches(""));
  EXPECT_FALSE(qrt.matches("!"));
}

TEST(QueryRouteTable, PatchBytesRoundTrip) {
  QueryRouteTable qrt(8);
  qrt.add_keywords("roundtrip test keywords");
  util::Bytes patch = qrt.to_patch_bytes();
  EXPECT_EQ(patch.size(), 256u);

  QueryRouteTable restored(13);
  ASSERT_TRUE(restored.from_patch_bytes(patch));
  EXPECT_EQ(restored.table_bits(), 8u);
  EXPECT_TRUE(restored.matches("roundtrip"));
  EXPECT_TRUE(restored.matches("test keywords"));
  EXPECT_FALSE(restored.matches("absent"));
}

TEST(QueryRouteTable, FromPatchRejectsBadSizes) {
  QueryRouteTable qrt(13);
  EXPECT_FALSE(qrt.from_patch_bytes(util::Bytes(100)));  // not a power of two
  EXPECT_FALSE(qrt.from_patch_bytes(util::Bytes(8)));    // too small
  EXPECT_FALSE(qrt.from_patch_bytes({}));
}

TEST(QueryRouteTable, RejectedPatchLeavesTableUnchanged) {
  QueryRouteTable qrt(10);
  qrt.add_keywords("kept across rejected patches");
  const QueryRouteTable before = qrt;
  for (std::size_t size : {0u, 1u, 8u, 15u, 100u, 1000u, 1025u}) {
    EXPECT_FALSE(qrt.from_patch_bytes(util::Bytes(size, 1))) << size;
    EXPECT_EQ(qrt, before) << size;
  }
  EXPECT_EQ(qrt.table_bits(), 10u);
  EXPECT_TRUE(qrt.matches("kept patches"));
}

// Property: for any patch, decoding then encoding yields the patch with
// every non-zero byte normalized to 1, and fill_ratio() is the share of
// non-zero bytes. Sizes cover tables smaller than one 64-slot word.
TEST(QueryRouteTable, PatchCodecProperty) {
  util::Rng rng(2024);
  for (unsigned bits = 4; bits <= 16; ++bits) {
    for (int mode = 0; mode < 3; ++mode) {
      util::Bytes patch(std::size_t{1} << bits);
      for (auto& b : patch) {
        switch (mode) {
          case 0:  // sparse 0/1, like an honest leaf's table
            b = rng.chance(0.05) ? 1 : 0;
            break;
          case 1:  // dense 0/1
            b = rng.chance(0.5) ? 1 : 0;
            break;
          default:  // arbitrary bytes, as a corrupted payload carries
            b = static_cast<std::uint8_t>(rng.chance(0.3) ? 0 : rng.next());
        }
      }
      QueryRouteTable qrt(13);
      ASSERT_TRUE(qrt.from_patch_bytes(patch));
      EXPECT_EQ(qrt.table_bits(), bits);
      EXPECT_EQ(qrt.slot_count(), patch.size());

      util::Bytes normalized(patch.size());
      std::size_t set = 0;
      for (std::size_t i = 0; i < patch.size(); ++i) {
        normalized[i] = patch[i] != 0 ? 1 : 0;
        set += normalized[i];
        ASSERT_EQ(qrt.test(i), patch[i] != 0) << "bits " << bits << " slot " << i;
      }
      EXPECT_EQ(qrt.to_patch_bytes(), normalized) << "bits " << bits << " mode " << mode;
      EXPECT_DOUBLE_EQ(qrt.fill_ratio(),
                       static_cast<double>(set) / static_cast<double>(patch.size()));
    }
  }
}

TEST(QueryRouteTable, SlotAccessAndFillOnSubWordTable) {
  QueryRouteTable qrt(4);  // 16 slots: less than one word
  EXPECT_EQ(qrt.slot_count(), 16u);
  qrt.set(0);
  qrt.set(15);
  EXPECT_TRUE(qrt.test(0));
  EXPECT_TRUE(qrt.test(15));
  EXPECT_FALSE(qrt.test(7));
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 2.0 / 16.0);
  qrt.fill_all();
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 1.0);
  EXPECT_EQ(qrt.to_patch_bytes(), util::Bytes(16, 1));
  qrt.clear();
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 0.0);
  EXPECT_EQ(qrt.to_patch_bytes(), util::Bytes(16, 0));
}

TEST(QueryRouteTable, ConstructorValidatesBits) {
  EXPECT_THROW(QueryRouteTable(3), std::invalid_argument);
  EXPECT_THROW(QueryRouteTable(25), std::invalid_argument);
  EXPECT_NO_THROW(QueryRouteTable(4));
  EXPECT_NO_THROW(QueryRouteTable(24));
}

TEST(QueryRouteTable, FillRatioCountsKeywords) {
  QueryRouteTable qrt(13);
  qrt.add_keywords("one two three four five");
  double ratio = qrt.fill_ratio();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 5.0 / 8192.0);
}

}  // namespace
}  // namespace p2p::gnutella
