#include "util/strings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace p2p::util {
namespace {

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("AbC xY-Z"), "abc xy-z");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Split, DropsEmptyPieces) {
  auto parts = split("a,,b,c,", ",");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, MultipleDelimiters) {
  auto parts = split("a b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Keywords, TokenizesLowercaseAlnum) {
  auto kw = keywords("Blue Horizon - Midnight_Rain (Live).mp3");
  std::vector<std::string> expected = {"blue", "horizon", "midnight",
                                       "rain", "live", "mp3"};
  EXPECT_EQ(kw, expected);
}

TEST(Keywords, DropsShortTokens) {
  auto kw = keywords("a b cd");
  ASSERT_EQ(kw.size(), 1u);
  EXPECT_EQ(kw[0], "cd");
}

TEST(KeywordMatch, AllQueryTokensRequired) {
  EXPECT_TRUE(keyword_match("blue rain", "blue horizon - midnight rain.mp3"));
  EXPECT_FALSE(keyword_match("blue sun", "blue horizon - midnight rain.mp3"));
  EXPECT_TRUE(keyword_match("RAIN", "Midnight Rain"));
}

TEST(KeywordMatch, EmptyQueryNeverMatches) {
  EXPECT_FALSE(keyword_match("", "anything"));
  EXPECT_FALSE(keyword_match("!!", "anything"));
}

// keyword_match's definition: every keywords() token of the query is a
// keywords() token of the text, and the query has at least one.
bool keyword_match_by_definition(std::string_view query, std::string_view text) {
  auto qk = keywords(query);
  if (qk.empty()) return false;
  auto tk = keywords(text);
  return std::all_of(qk.begin(), qk.end(), [&](const std::string& q) {
    return std::find(tk.begin(), tk.end(), q) != tk.end();
  });
}

TEST(KeywordMatch, EdgeCasesAgreeWithDefinition) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", ""},           {"a", "a"},           {"ab", "AB"},
      {"a ab", "ab"},     {"ab ab ab", "xx ab"}, {"AbC", "xabc abcx"},
      {"ab", "ab"},       {"ab", "a-b"},        {"\xe9t\xe9 ab", "ab \xe9t\xe9"},
      {"caf\xe9", "caf"}, {"mp3", "song.MP3"},  {"ab\x80" "cd", "cd ab"},
      {"ab", ""},         {"1 22", "22"},        {"Zz", "zZ zz"}};
  for (const auto& [q, t] : cases) {
    EXPECT_EQ(keyword_match(q, t), keyword_match_by_definition(q, t)) << q << " | " << t;
  }
}

// 10k seeded random query/text pairs built from a small vocabulary (so
// matches are common), with high-bit bytes, one-character tokens, repeats,
// mixed case and empty queries, plus raw random bytes.
TEST(KeywordMatch, AgreesWithDefinitionOnRandomStrings) {
  const std::vector<std::string> vocab = {"a",  "B",   "ab",  "AB",    "aB",   "x1",
                                          "mp3", "MP3", "z",   "\xe9t", "\xff", "setup",
                                          "Setup", "7",  "77",  "rain"};
  const std::vector<std::string> seps = {" ", "-", ".", "_", "\x80", "\xc3\xa9", "  ", "("};
  Rng rng(2006);
  auto phrase = [&](std::size_t max_tokens) {
    std::string out;
    const std::size_t n = rng.index(max_tokens + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 || rng.chance(0.2)) out += seps[rng.index(seps.size())];
      out += vocab[rng.index(vocab.size())];
    }
    return out;
  };
  auto raw = [&](std::size_t max_len) {
    std::string out(rng.index(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng.bounded(256));
    return out;
  };
  std::size_t matches = 0;
  for (int i = 0; i < 10'000; ++i) {
    const bool random_bytes = i % 10 == 0;
    const std::string query = random_bytes ? raw(6) : phrase(3);
    const std::string text = random_bytes ? raw(24) : phrase(8);
    const bool expected = keyword_match_by_definition(query, text);
    ASSERT_EQ(keyword_match(query, text), expected) << "case " << i;
    matches += expected ? 1 : 0;
  }
  // Both outcomes are well represented, so the comparison means something.
  EXPECT_GT(matches, 1'000u);
  EXPECT_LT(matches, 9'000u);
}

TEST(EndsWithIcase, Works) {
  EXPECT_TRUE(ends_with_icase("setup.EXE", ".exe"));
  EXPECT_TRUE(ends_with_icase("a.zip", ".ZIP"));
  EXPECT_FALSE(ends_with_icase("a.zipx", ".zip"));
  EXPECT_FALSE(ends_with_icase("zip", ".zip"));
}

TEST(Extension, Basic) {
  EXPECT_EQ(extension("Setup.EXE"), "exe");
  EXPECT_EQ(extension("archive.tar.gz"), "gz");
  EXPECT_EQ(extension("noext"), "");
  EXPECT_EQ(extension("trailingdot."), "");
  EXPECT_EQ(extension("dir.v2/file"), "");
  EXPECT_EQ(extension("/shared/song.mp3"), "mp3");
}

TEST(FormatPct, Rounding) {
  EXPECT_EQ(format_pct(0.684), "68.4%");
  EXPECT_EQ(format_pct(0.9999, 2), "99.99%");
  EXPECT_EQ(format_pct(0.0), "0.0%");
  EXPECT_EQ(format_pct(1.0, 0), "100%");
}

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(12), "12");
  EXPECT_EQ(format_count(123456), "123,456");
}

}  // namespace
}  // namespace p2p::util
