#include "kad/routing.h"

#include <algorithm>

namespace p2p::kad {

std::vector<RoutingTable::Entry>* RoutingTable::bucket_for(const KadId& id) {
  int idx = bucket_index(id ^ self_);
  if (idx < 0) return nullptr;  // never bucket self
  return &buckets_[static_cast<std::size_t>(idx)];
}

void RoutingTable::observe(const Contact& contact) {
  auto* bucket = bucket_for(contact.id);
  if (bucket == nullptr) return;
  auto it = std::find_if(bucket->begin(), bucket->end(), [&](const Entry& e) {
    return e.contact.id == contact.id;
  });
  if (it != bucket->end()) {
    // Known contact: refresh address/flags and move to the tail (most
    // recently seen).
    Entry entry{contact, 0};
    bucket->erase(it);
    bucket->push_back(entry);
    return;
  }
  if (bucket->size() < config_.k) {
    bucket->push_back(Entry{contact, 0});
    ++size_;
    return;
  }
  // Full bucket: displace the oldest entry only if it has proven stale;
  // otherwise the newcomer is dropped.
  if (bucket->front().failures >= config_.stale_after_failures) {
    bucket->erase(bucket->begin());
    bucket->push_back(Entry{contact, 0});
  }
}

void RoutingTable::fail(const KadId& id) {
  auto* bucket = bucket_for(id);
  if (bucket == nullptr) return;
  for (auto& e : *bucket) {
    if (e.contact.id == id) {
      ++e.failures;
      return;
    }
  }
}

std::vector<Contact> RoutingTable::closest(const KadId& target,
                                           std::size_t n) const {
  std::vector<Contact> all;
  all.reserve(size_);
  for (const auto& bucket : buckets_) {
    for (const auto& e : bucket) all.push_back(e.contact);
  }
  // A strict total order (ids are unique per table, and the id breaks any
  // tie), so the first n are the same as a full sort's.
  const std::size_t k = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [&](const Contact& a, const Contact& b) {
                      KadId da = a.id ^ target, db = b.id ^ target;
                      if (da != db) return da < db;
                      return a.id < b.id;
                    });
  all.resize(k);
  return all;
}

bool RoutingTable::contains(const KadId& id) const {
  int idx = bucket_index(id ^ self_);
  if (idx < 0) return false;
  const auto& bucket = buckets_[static_cast<std::size_t>(idx)];
  return std::any_of(bucket.begin(), bucket.end(), [&](const Entry& e) {
    return e.contact.id == id;
  });
}

}  // namespace p2p::kad
