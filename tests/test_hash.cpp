#include "files/hash.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "files/file.h"

namespace p2p::files {
namespace {

util::Bytes bytes_of(std::string_view s) { return util::Bytes(s.begin(), s.end()); }

// FIPS 180-1 / RFC 1321 reference vectors.

TEST(Sha1, EmptyInput) {
  EXPECT_EQ(hex(sha1({})), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(sha1(bytes_of("abc"))), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(sha1(bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  util::Bytes data(1'000'000, 'a');
  EXPECT_EQ(hex(sha1(data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Runs of 'a' at the lengths where padding spills into a second block or
// the message fills whole blocks; digests from coreutils sha1sum.
TEST(Sha1, BlockBoundaryLengths) {
  const std::pair<std::size_t, const char*> vectors[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {65, "11655326c708d70319be2610e8a57d9a5b959d3b"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [length, digest] : vectors) {
    EXPECT_EQ(hex(sha1(util::Bytes(length, 'a'))), digest) << length;
  }
}

TEST(Md5, EmptyInput) {
  EXPECT_EQ(hex(md5({})), "d41d8cd98f00b204e9800998ecf8427e");
}

TEST(Md5, Abc) {
  EXPECT_EQ(hex(md5(bytes_of("abc"))), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, LongerVector) {
  EXPECT_EQ(hex(md5(bytes_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, RepeatedDigits) {
  EXPECT_EQ(hex(md5(bytes_of("12345678901234567890123456789012345678901234567890123456789012345678901234567890"))),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

// Property: incremental hashing with arbitrary chunking equals one-shot.
class ChunkedHashing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkedHashing, Sha1MatchesOneShot) {
  std::size_t chunk = GetParam();
  util::Bytes data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  Sha1 h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    std::size_t n = std::min(chunk, data.size() - off);
    h.update({data.data() + off, n});
  }
  EXPECT_EQ(h.finish(), sha1(data));
}

TEST_P(ChunkedHashing, Md5MatchesOneShot) {
  std::size_t chunk = GetParam();
  util::Bytes data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  Md5 h;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    std::size_t n = std::min(chunk, data.size() - off);
    h.update({data.data() + off, n});
  }
  EXPECT_EQ(h.finish(), md5(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkedHashing,
                         ::testing::Values(1, 3, 55, 56, 63, 64, 65, 128, 1000));

// Property: sizes around the padding boundary all hash consistently
// (one-shot vs 1-byte incremental).
class PaddingBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingBoundary, Sha1Consistent) {
  util::Bytes data(GetParam(), 0x5A);
  Sha1 h;
  for (std::uint8_t b : data) h.update({&b, 1});
  EXPECT_EQ(h.finish(), sha1(data));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaddingBoundary,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120,
                                           121, 127, 128));

TEST(Digests, DifferentInputsDiffer) {
  EXPECT_NE(sha1(bytes_of("a")), sha1(bytes_of("b")));
  EXPECT_NE(md5(bytes_of("a")), md5(bytes_of("b")));
}

// A trojan alias is a second name over its artifact's bytes: it shares the
// bytes and the once-computed digests, whichever side asks first, and it
// keeps them alive after the source is gone.
TEST(FileContent, AliasSharesBytesAndDigests) {
  auto source = std::make_shared<const FileContent>("setup.exe", bytes_of("MZ trojan body"));
  const Digest20& source_sha1 = source->sha1();  // computed before the alias exists
  FileContent alias("popular song keygen.exe", *source);
  EXPECT_EQ(alias.name(), "popular song keygen.exe");
  EXPECT_EQ(source->name(), "setup.exe");
  EXPECT_EQ(&alias.bytes(), &source->bytes());
  EXPECT_EQ(alias.size(), source->size());
  EXPECT_EQ(&alias.sha1(), &source_sha1);
  EXPECT_EQ(alias.sha1(), sha1(bytes_of("MZ trojan body")));
  const Digest16& alias_md5 = alias.md5();  // computed through the alias first
  EXPECT_EQ(&source->md5(), &alias_md5);
  EXPECT_EQ(alias_md5, md5(bytes_of("MZ trojan body")));

  source.reset();
  EXPECT_EQ(alias.bytes(), bytes_of("MZ trojan body"));
}

}  // namespace
}  // namespace p2p::files
