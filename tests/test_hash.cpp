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

// RFC 1321 appendix A.5, the whole test suite.
TEST(Md5, Rfc1321Suite) {
  const std::pair<const char*, const char*> vectors[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890"
       "1234567890",
       "57edf4a22be3c955ac49da2e2107b67a"},
  };
  for (const auto& [message, digest] : vectors) {
    EXPECT_EQ(hex(md5(bytes_of(message))), digest) << '"' << message << '"';
  }
}

// The table-driven MD5 compression loop (one branch per round, g by
// modulo, shifts from a table), kept here as an independent reference for
// the straight-line kernel.
Digest16 md5_reference(const util::Bytes& message) {
  static constexpr int kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  static constexpr std::uint32_t kK[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
      0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
      0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
      0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
      0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
      0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
      0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
      0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
      0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
      0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};
  auto rotl = [](std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); };
  util::Bytes padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 0; i < 8; ++i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::uint32_t state[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    const std::uint8_t* block = padded.data() + off;
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      m[i] = std::uint32_t{block[i * 4]} | (std::uint32_t{block[i * 4 + 1]} << 8) |
             (std::uint32_t{block[i * 4 + 2]} << 16) |
             (std::uint32_t{block[i * 4 + 3]} << 24);
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      f = f + a + kK[i] + m[g];
      a = d;
      d = c;
      c = b;
      b = b + rotl(f, kShift[i]);
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  }
  Digest16 out;
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

TEST(Md5, MatchesReferenceAtEveryLength) {
  util::Bytes data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  for (std::size_t length = 0; length <= 300; ++length) {
    const util::Bytes prefix(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(length));
    EXPECT_EQ(md5(prefix), md5_reference(prefix)) << length;
  }
  EXPECT_EQ(md5(data), md5_reference(data));
}

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
