#include "util/bytes.h"

#include <gtest/gtest.h>

#include <string_view>

namespace p2p::util {
namespace {

TEST(ByteWriter, WritesLittleEndian) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16le(0x1234);
  w.u32le(0xDEADBEEF);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 0xAB);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0x12);
  EXPECT_EQ(b[3], 0xEF);
  EXPECT_EQ(b[4], 0xBE);
  EXPECT_EQ(b[5], 0xAD);
  EXPECT_EQ(b[6], 0xDE);
}

TEST(ByteWriter, WritesBigEndian) {
  ByteWriter w;
  w.u16be(0x1234);
  w.u32be(0xCAFEBABE);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0xCA);
  EXPECT_EQ(b[3], 0xFE);
  EXPECT_EQ(b[4], 0xBA);
  EXPECT_EQ(b[5], 0xBE);
}

TEST(ByteWriter, CstrAppendsNul) {
  ByteWriter w;
  w.cstr("hi");
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.data()[2], 0u);
}

TEST(ByteReader, RoundTripsAllWidths) {
  ByteWriter w;
  w.u8(7);
  w.u16le(65535);
  w.u32le(123456789);
  w.u64le(0x0123456789ABCDEFull);
  w.u16be(4096);
  w.u32be(0xFEEDFACE);
  Bytes wire = std::move(w).take();

  ByteReader r(wire);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16le(), 65535);
  EXPECT_EQ(r.u32le(), 123456789u);
  EXPECT_EQ(r.u64le(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.u16be(), 4096);
  EXPECT_EQ(r.u32be(), 0xFEEDFACEu);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, CstrStopsAtNul) {
  ByteWriter w;
  w.cstr("alpha");
  w.cstr("beta");
  Bytes wire = std::move(w).take();
  ByteReader r(wire);
  EXPECT_EQ(r.cstr(), "alpha");
  EXPECT_EQ(r.cstr(), "beta");
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, CstrWithoutNulThrows) {
  Bytes wire = {'a', 'b', 'c'};
  ByteReader r(wire);
  EXPECT_THROW((void)r.cstr(), BufferUnderflow);
}

TEST(ByteReader, UnderflowThrows) {
  Bytes wire = {1, 2};
  ByteReader r(wire);
  EXPECT_THROW((void)r.u32le(), BufferUnderflow);
  // Failed read must not consume anything.
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.u16le(), 0x0201);
}

TEST(ByteReader, SkipAndPosition) {
  Bytes wire = {1, 2, 3, 4, 5};
  ByteReader r(wire);
  r.skip(2);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_THROW(r.skip(3), BufferUnderflow);
}

TEST(ByteReader, BytesExtractsExactRange) {
  Bytes wire = {9, 8, 7, 6};
  ByteReader r(wire);
  r.skip(1);
  Bytes mid = r.bytes(2);
  EXPECT_EQ(mid, (Bytes{8, 7}));
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Varint, EncodesCanonicalLeb128) {
  ByteWriter w;
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(300);
  const Bytes& b = w.data();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x00);
  EXPECT_EQ(b[1], 0x7F);
  EXPECT_EQ(b[2], 0x80);  // 128 = [0x80, 0x01]
  EXPECT_EQ(b[3], 0x01);
  EXPECT_EQ(b[4], 0xAC);  // 300 = [0xAC, 0x02]
  EXPECT_EQ(b[5], 0x02);
}

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  ByteWriter w;
  for (std::uint64_t v : values) w.varint(v);
  Bytes wire = std::move(w).take();
  ByteReader r(wire);
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.empty());
}

TEST(Varint, TruncatedThrows) {
  Bytes wire = {0x80, 0x80};  // continuation bits with no terminator
  ByteReader r(wire);
  EXPECT_THROW((void)r.varint(), BufferUnderflow);
}

TEST(Varint, OverlongThrows) {
  // 11 continuation bytes: more than a uint64 can carry.
  Bytes wire(11, 0x80);
  wire.push_back(0x01);
  ByteReader r(wire);
  EXPECT_THROW((void)r.varint(), BufferUnderflow);
}

TEST(Varint, TenthByteOverflowThrows) {
  // 10-byte encoding whose final byte sets bits beyond the 64th.
  Bytes wire(9, 0x80);
  wire.push_back(0x02);
  ByteReader r(wire);
  EXPECT_THROW((void)r.varint(), BufferUnderflow);
}

TEST(LpStr, RoundTripsIncludingEmptyAndNulBytes) {
  ByteWriter w;
  w.lp_str("");
  w.lp_str("hello");
  w.lp_str(std::string_view("a\0b", 3));
  Bytes wire = std::move(w).take();
  ByteReader r(wire);
  EXPECT_EQ(r.lp_str(), "");
  EXPECT_EQ(r.lp_str(), "hello");
  EXPECT_EQ(r.lp_str(), std::string("a\0b", 3));
  EXPECT_TRUE(r.empty());
}

TEST(LpStr, LengthBeyondBufferThrows) {
  ByteWriter w;
  w.varint(100);  // declares 100 bytes...
  w.str("hi");    // ...provides 2
  Bytes wire = std::move(w).take();
  ByteReader r(wire);
  EXPECT_THROW((void)r.lp_str(), BufferUnderflow);
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  Bytes data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

TEST(Crc32, KnownVector) {
  // The check value through a string's bytes, the way ZIP entries reach it.
  std::string_view text = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}),
            0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  // Empty input leaves the seed unchanged, from zero and from any chain.
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32({}, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  Bytes all = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  Bytes head(all.begin(), all.begin() + 4);
  Bytes tail(all.begin() + 4, all.end());
  EXPECT_EQ(crc32(tail, crc32(head)), crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data(64, 0x5A);
  std::uint32_t clean = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), clean);
}

// Bit-at-a-time CRC-32/IEEE straight from the polynomial: the reference the
// slicing-by-8 kernel must match.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, SlicingMatchesBitwiseReference) {
  // Every length through the 8-byte steps and the byte-wise tail, at every
  // alignment of the start, under several seeds.
  Bytes buffer(1100 + 8);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
  }
  const std::uint32_t seeds[] = {0u, 1u, 0xFFFFFFFFu, 0x9E3779B9u};
  for (std::uint32_t seed : seeds) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t length = 0; length <= 1100; ++length) {
        const std::uint8_t* p = buffer.data() + offset;
        ASSERT_EQ(crc32({p, length}, seed), crc32_bitwise(p, length, seed))
            << "seed " << seed << " offset " << offset << " length " << length;
      }
    }
  }
  // Chaining holds at every split point.
  const std::span<const std::uint8_t> all(buffer.data(), 100);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), crc32(all)) << split;
  }
}

TEST(TaggedFrame, RoundTrips) {
  Bytes payload = {1, 2, 3};
  Bytes wire = tagged_frame_be16(0x0042, payload);
  ASSERT_EQ(wire.size(), 7u);
  EXPECT_EQ(wire[0], 0x00);  // length, big-endian
  EXPECT_EQ(wire[1], 0x03);
  EXPECT_EQ(wire[2], 0x00);  // tag, big-endian
  EXPECT_EQ(wire[3], 0x42);
  auto frame = parse_tagged_frame_be16(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->tag, 0x0042);
  EXPECT_EQ(Bytes(frame->payload.begin(), frame->payload.end()), payload);
}

TEST(TaggedFrame, RejectsLengthMismatch) {
  Bytes payload = {1, 2, 3};
  Bytes wire = tagged_frame_be16(7, payload);
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(parse_tagged_frame_be16(truncated).has_value());
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(parse_tagged_frame_be16(padded).has_value());
  EXPECT_FALSE(parse_tagged_frame_be16(Bytes{0x00}).has_value());
}

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHex) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(Hex, AcceptsUppercase) {
  auto v = from_hex("AB");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 0xAB);
}

TEST(Hex, EmptyIsEmpty) {
  auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

// Property: any byte vector survives a hex round trip.
class HexRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HexRoundTrip, Survives) {
  Bytes data(GetParam());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  auto back = from_hex(to_hex(data));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HexRoundTrip,
                         ::testing::Values(0, 1, 2, 15, 64, 255, 1000));

}  // namespace
}  // namespace p2p::util
