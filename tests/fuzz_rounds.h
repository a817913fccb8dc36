// The fuzz suites' round budget: P2P_FUZZ_ROUNDS scales every mutation loop
// (the sanitizer tier raises it; see ci/run_tiers.sh). The value must be a
// whole unsigned decimal; anything else fails the calling test with a
// message instead of silently running a different budget.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace p2p {

/// Strict parse of a P2P_FUZZ_ROUNDS value: digits only, no sign, no
/// whitespace, no suffix, fits in an int. nullopt on anything else.
inline std::optional<int> parse_fuzz_rounds(std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return std::nullopt;
  int value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) return std::nullopt;
  return value;
}

/// Rounds to run: `fallback` when P2P_FUZZ_ROUNDS is unset, empty or 0, else
/// its value. A malformed value adds a test failure naming it and returns 0,
/// so the loop runs nothing.
inline int fuzz_rounds(int fallback) {
  const char* env = std::getenv("P2P_FUZZ_ROUNDS");
  if (env == nullptr || *env == '\0') return fallback;
  std::optional<int> rounds = parse_fuzz_rounds(env);
  if (!rounds) {
    ADD_FAILURE() << "P2P_FUZZ_ROUNDS=\"" << env
                  << "\" is not a whole unsigned number of rounds";
    return 0;
  }
  return *rounds > 0 ? *rounds : fallback;
}

}  // namespace p2p
