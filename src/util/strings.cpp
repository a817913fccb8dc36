#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace p2p::util {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find_first_of(delims, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> keywords(std::string_view s) {
  std::vector<std::string> out;
  std::string current;
  auto flush = [&] {
    if (current.size() >= 2) out.push_back(current);
    current.clear();
  };
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      flush();
    }
  }
  flush();
  return out;
}

namespace {

bool is_keyword_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; }

/// The next token keywords() would emit from s[pos..], as a view of `s`
/// (case unfolded); advances `pos` past it. False when none is left.
bool next_keyword(std::string_view s, std::size_t& pos, std::string_view& token) {
  while (pos < s.size()) {
    while (pos < s.size() && !is_keyword_char(s[pos])) ++pos;
    const std::size_t start = pos;
    while (pos < s.size() && is_keyword_char(s[pos])) ++pos;
    if (pos - start >= 2) {
      token = s.substr(start, pos - start);
      return true;
    }
  }
  return false;
}

bool equal_folded(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](unsigned char x, unsigned char y) {
                      return std::tolower(x) == std::tolower(y);
                    });
}

}  // namespace

// Tokenizes both strings in place (no vectors, no strings): each query
// keyword is looked up by rescanning the text's keywords.
bool keyword_match(std::string_view query, std::string_view text) {
  bool any = false;
  std::string_view q;
  for (std::size_t qpos = 0; next_keyword(query, qpos, q);) {
    any = true;
    bool found = false;
    std::string_view t;
    for (std::size_t tpos = 0; !found && next_keyword(text, tpos, t);) {
      found = equal_folded(q, t);
    }
    if (!found) return false;
  }
  return any;
}

bool ends_with_icase(std::string_view s, std::string_view suffix) {
  if (s.size() < suffix.size()) return false;
  std::string_view tail = s.substr(s.size() - suffix.size());
  return std::equal(tail.begin(), tail.end(), suffix.begin(), suffix.end(),
                    [](unsigned char a, unsigned char b) {
                      return std::tolower(a) == std::tolower(b);
                    });
}

std::string extension(std::string_view filename) {
  std::size_t dot = filename.rfind('.');
  if (dot == std::string_view::npos || dot + 1 == filename.size()) return {};
  // A '.' inside a path component only counts if after the last separator.
  std::size_t sep = filename.find_last_of("/\\");
  if (sep != std::string_view::npos && sep > dot) return {};
  return to_lower(filename.substr(dot + 1));
}

std::string format_pct(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string format_count(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace p2p::util
