#include "util/ip.h"

#include <gtest/gtest.h>

#include <ostream>

namespace p2p::util {
namespace {

TEST(Ipv4, ParseAndFormatRoundTrip) {
  auto ip = Ipv4::parse("156.56.1.10");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->str(), "156.56.1.10");
}

TEST(Ipv4, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4::parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4 ").has_value());
}

TEST(Ipv4, OctetConstructor) {
  Ipv4 ip(10, 0, 0, 1);
  EXPECT_EQ(ip.value(), 0x0A000001u);
  EXPECT_EQ(ip.str(), "10.0.0.1");
}

struct ClassCase {
  const char* addr;
  IpClass expected;
};

// Print the case by value: gtest's default dumps the struct's bytes, which
// include the string pointer and so change from one build to the next.
void PrintTo(const ClassCase& c, std::ostream* os) {
  *os << c.addr << " is " << to_string(c.expected);
}

class IpClassification : public ::testing::TestWithParam<ClassCase> {};

TEST_P(IpClassification, Classifies) {
  auto ip = Ipv4::parse(GetParam().addr);
  ASSERT_TRUE(ip.has_value()) << GetParam().addr;
  EXPECT_EQ(ip->classify(), GetParam().expected) << GetParam().addr;
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, IpClassification,
    ::testing::Values(
        ClassCase{"8.8.8.8", IpClass::kPublic},
        ClassCase{"156.56.1.10", IpClass::kPublic},
        ClassCase{"9.255.255.255", IpClass::kPublic},
        ClassCase{"11.0.0.1", IpClass::kPublic},
        ClassCase{"10.0.0.1", IpClass::kPrivate},
        ClassCase{"10.255.255.255", IpClass::kPrivate},
        ClassCase{"172.16.0.1", IpClass::kPrivate},
        ClassCase{"172.31.255.254", IpClass::kPrivate},
        ClassCase{"172.15.0.1", IpClass::kPublic},
        ClassCase{"172.32.0.1", IpClass::kPublic},
        ClassCase{"192.168.1.100", IpClass::kPrivate},
        ClassCase{"192.167.1.1", IpClass::kPublic},
        ClassCase{"192.169.1.1", IpClass::kPublic},
        ClassCase{"127.0.0.1", IpClass::kLoopback},
        ClassCase{"169.254.17.3", IpClass::kLinkLocal},
        ClassCase{"169.253.0.1", IpClass::kPublic},
        ClassCase{"0.1.2.3", IpClass::kReserved},
        ClassCase{"224.0.0.1", IpClass::kReserved},
        ClassCase{"240.1.2.3", IpClass::kReserved},
        ClassCase{"255.255.255.255", IpClass::kReserved}));

TEST(Ipv4, HelperPredicates) {
  EXPECT_TRUE(Ipv4(192, 168, 0, 2).is_private());
  EXPECT_FALSE(Ipv4(192, 168, 0, 2).is_publicly_routable());
  EXPECT_TRUE(Ipv4(4, 4, 4, 4).is_publicly_routable());
  EXPECT_FALSE(Ipv4(127, 0, 0, 1).is_publicly_routable());
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4(1, 0, 0, 1), Ipv4(2, 0, 0, 1));
  EXPECT_EQ(Ipv4(5, 6, 7, 8), Ipv4(5, 6, 7, 8));
}

TEST(Endpoint, FormatAndOrdering) {
  Endpoint a{Ipv4(1, 2, 3, 4), 6346};
  EXPECT_EQ(a.str(), "1.2.3.4:6346");
  Endpoint b{Ipv4(1, 2, 3, 4), 6347};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, (Endpoint{Ipv4(1, 2, 3, 4), 6346}));
}

TEST(IpClassNames, AllDistinct) {
  EXPECT_EQ(to_string(IpClass::kPublic), "public");
  EXPECT_EQ(to_string(IpClass::kPrivate), "private");
  EXPECT_EQ(to_string(IpClass::kLoopback), "loopback");
  EXPECT_EQ(to_string(IpClass::kLinkLocal), "link-local");
  EXPECT_EQ(to_string(IpClass::kReserved), "reserved");
}

}  // namespace
}  // namespace p2p::util
