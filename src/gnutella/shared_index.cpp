#include "gnutella/shared_index.h"

#include <algorithm>

#include "util/strings.h"

namespace p2p::gnutella {

const std::vector<std::uint32_t>& TokenInterner::intern_keywords(std::string_view text) {
  if (auto memo = names_.find(text); memo != names_.end()) return memo->second;
  std::vector<std::uint32_t> out;
  for (auto& kw : util::keywords(text)) {
    auto id = static_cast<std::uint32_t>(ids_.size());
    auto [it, inserted] = ids_.emplace(std::move(kw), id);
    if (inserted) qrp_hashes_.push_back(qrp_hash(it->first, kHashBits));
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return names_.emplace(std::string(text), std::move(out)).first->second;
}

std::optional<std::vector<std::uint32_t>> TokenInterner::lookup_keywords(
    std::string_view text) const {
  auto kws = util::keywords(text);
  if (kws.empty()) return std::nullopt;
  std::vector<std::uint32_t> out;
  out.reserve(kws.size());
  for (const auto& kw : kws) {
    auto it = ids_.find(kw);
    if (it == ids_.end()) return std::nullopt;
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint32_t SharedFileIndex::add(std::shared_ptr<const files::FileContent> file) {
  if (!interner_) interner_ = std::make_shared<TokenInterner>();
  total_bytes_ += file->size();
  const auto& ids = interner_->intern_keywords(file->name());
  token_ids_.insert(token_ids_.end(), ids.begin(), ids.end());
  offsets_.push_back(static_cast<std::uint32_t>(token_ids_.size()));
  files_.push_back(std::move(file));
  return static_cast<std::uint32_t>(files_.size() - 1);
}

std::vector<SharedFileIndex::Match> SharedFileIndex::match(std::string_view query) const {
  std::vector<Match> out;
  if (files_.empty()) return out;
  auto q = interner_->lookup_keywords(query);
  if (!q) return out;  // no keywords, or one no shared file anywhere contains
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const auto* begin = token_ids_.data() + offsets_[i];
    const auto* end = token_ids_.data() + offsets_[i + 1];
    if (std::includes(begin, end, q->begin(), q->end())) {
      out.push_back(Match{static_cast<std::uint32_t>(i), files_[i].get()});
    }
  }
  return out;
}

std::shared_ptr<const files::FileContent> SharedFileIndex::get(std::uint32_t index) const {
  if (index >= files_.size()) return nullptr;
  return files_[index];
}

QueryRouteTable SharedFileIndex::build_qrt(unsigned table_bits) const {
  QueryRouteTable qrt(table_bits);
  for (std::uint32_t id : token_ids_) qrt.set(interner_->qrp_slot(id, table_bits));
  return qrt;
}

}  // namespace p2p::gnutella
