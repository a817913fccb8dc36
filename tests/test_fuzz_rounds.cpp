// P2P_FUZZ_ROUNDS parsing: whole unsigned decimals scale the fuzz loops,
// anything else fails the test that asked instead of silently running a
// different budget ("2k" used to run 2 rounds, "abc" the default).
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "tests/fuzz_rounds.h"

namespace p2p {
namespace {

// Sets P2P_FUZZ_ROUNDS for one test (unset when `value` is null) and
// restores the caller's value afterwards.
class ScopedRoundsEnv {
 public:
  explicit ScopedRoundsEnv(const char* value) {
    if (const char* old = std::getenv("P2P_FUZZ_ROUNDS")) saved_ = old;
    if (value != nullptr) {
      setenv("P2P_FUZZ_ROUNDS", value, 1);
    } else {
      unsetenv("P2P_FUZZ_ROUNDS");
    }
  }
  ~ScopedRoundsEnv() {
    if (saved_) {
      setenv("P2P_FUZZ_ROUNDS", saved_->c_str(), 1);
    } else {
      unsetenv("P2P_FUZZ_ROUNDS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(FuzzRounds, ParsesWholeUnsignedDecimals) {
  EXPECT_EQ(parse_fuzz_rounds("2000"), 2000);
  EXPECT_EQ(parse_fuzz_rounds("7"), 7);
  EXPECT_EQ(parse_fuzz_rounds("0"), 0);
}

TEST(FuzzRounds, RejectsJunk) {
  for (const char* junk : {"2k", "abc", "-5", "+5", " 5", "5 ", "1e3", "0x10",
                           "99999999999"}) {
    EXPECT_EQ(parse_fuzz_rounds(junk), std::nullopt) << junk;
  }
}

TEST(FuzzRounds, ValidValuesKeepTheirMeaning) {
  {
    ScopedRoundsEnv env(nullptr);
    EXPECT_EQ(fuzz_rounds(200), 200);
  }
  {
    ScopedRoundsEnv env("");
    EXPECT_EQ(fuzz_rounds(200), 200);
  }
  {
    ScopedRoundsEnv env("0");
    EXPECT_EQ(fuzz_rounds(200), 200);
  }
  {
    ScopedRoundsEnv env("2000");
    EXPECT_EQ(fuzz_rounds(200), 2000);
  }
}

TEST(FuzzRounds, JunkFailsTheTestByName) {
  ScopedRoundsEnv env("2k");
  EXPECT_NONFATAL_FAILURE(EXPECT_EQ(fuzz_rounds(200), 0),
                          "P2P_FUZZ_ROUNDS=\"2k\" is not a whole unsigned number");
}

}  // namespace
}  // namespace p2p
