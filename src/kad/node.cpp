#include "kad/node.h"

#include <algorithm>

#include "files/transfer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/strings.h"

namespace p2p::kad {

namespace {

// Network-wide counters shared by every KAD node (per-instance numbers
// stay in KadStats); see DESIGN.md "Observability".
struct KadMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& lookups = r.counter("kad.lookups");
  obs::Counter& rpcs_sent = r.counter("kad.rpcs_sent");
  obs::Counter& rpcs_failed = r.counter("kad.rpcs_failed");
  obs::Counter& stores_received = r.counter("kad.stores_received");
  obs::Counter& entries_stored = r.counter("kad.entries_stored");
  obs::Counter& finds_handled = r.counter("kad.finds_handled");
  obs::Counter& searches_sent = r.counter("kad.searches_sent");
  obs::Counter& results_received = r.counter("kad.results_received");
  obs::Counter& server_queries = r.counter("kad.server_queries");
  obs::Counter& uploads_served = r.counter("kad.uploads_served");
  obs::Counter& dropped_malformed = r.counter("kad.dropped_malformed");

  static KadMetrics& get() { return obs::bound_metrics<KadMetrics>(); }
};

/// Keywords a share is published under: the first `limit` distinct
/// tokens of length >= 3 from the filename (falling back to the first
/// token so every share is publishable).
std::vector<std::string> publish_tokens(const std::string& filename,
                                        std::size_t limit) {
  auto tokens = util::keywords(filename);
  std::vector<std::string> out;
  for (const auto& t : tokens) {
    if (t.size() < 3) continue;
    if (std::find(out.begin(), out.end(), t) != out.end()) continue;
    out.push_back(t);
    if (out.size() >= limit) break;
  }
  if (out.empty() && !tokens.empty()) out.push_back(tokens.front());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

KadNode::KadNode(KadConfig config, std::vector<KadShare> shares,
                 std::shared_ptr<KadHostCache> host_cache, std::uint64_t rng_seed,
                 std::shared_ptr<KadHostCache> server_cache)
    : config_(std::move(config)),
      shares_(std::move(shares)),
      host_cache_(std::move(host_cache)),
      server_cache_(std::move(server_cache)),
      rng_(rng_seed),
      routing_(KadId{}, RoutingConfig{config_.k, config_.stale_after_failures}) {
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    md5_to_share_[files::hex(shares_[i].content->md5())] = i;
  }
}

void KadNode::start() {
  const auto& profile = network().profile(id());
  util::Endpoint ep{profile.ip, profile.port};
  self_ = Contact{node_id_for(ep), ep, profile.behind_nat};
  routing_ = RoutingTable(self_.id, RoutingConfig{config_.k, config_.stale_after_failures});

  // Bootstrap: seed the table from the host cache and walk toward our
  // own id to fill the near buckets.
  if (host_cache_ != nullptr) {
    for (const auto& host : host_cache_->sample(rng_, config_.bootstrap_contacts)) {
      if (host == self_.addr) continue;
      routing_.observe(Contact{node_id_for(host), host, false});
    }
  }
  if (routing_.size() > 0) {
    start_lookup(self_.id, LookupPurpose::kBootstrap, false);
  }
  // First publish pass shortly after joining, then on the republish timer.
  if (!shares_.empty()) {
    network().schedule_node(
        id(), sim::SimDuration::seconds(2 + static_cast<std::int64_t>(rng_.range(0, 8))),
        [this] { publish_pass(); });
  }
}

// ---------------------------------------------------------------------------
// Iterative lookups
// ---------------------------------------------------------------------------

std::uint64_t KadNode::start_lookup(const KadId& target, LookupPurpose purpose,
                                    bool find_value) {
  std::uint64_t lid = next_lookup_id_++;
  Lookup lookup;
  lookup.id = lid;
  lookup.target = target;
  lookup.purpose = purpose;
  lookup.find_value = find_value;
  seed_candidates(lookup);
  ++stats_.lookups_started;
  KadMetrics::get().lookups.add(1);
  auto [it, _] = lookups_.emplace(lid, std::move(lookup));
  step_lookup(it->second);
  // Deadline: whatever state the walk is in, declare it finished.
  network().schedule_node(id(), config_.lookup_timeout, [this, lid] {
    if (lookups_.count(lid) != 0) finish_lookup(lid);
  });
  return lid;
}

void KadNode::seed_candidates(Lookup& lookup) {
  for (const auto& c : routing_.closest(lookup.target, config_.k)) {
    merge_candidate(lookup, c);
  }
  if (lookup.candidates.size() < config_.k && host_cache_ != nullptr) {
    for (const auto& host : host_cache_->sample(rng_, config_.bootstrap_contacts)) {
      if (host == self_.addr) continue;
      merge_candidate(lookup, Contact{node_id_for(host), host, false});
    }
  }
}

void KadNode::merge_candidate(Lookup& lookup, const Contact& contact) {
  if (contact.id == self_.id || contact.firewalled) return;
  auto pos = std::lower_bound(
      lookup.candidates.begin(), lookup.candidates.end(), contact,
      [&](const Candidate& a, const Contact& b) {
        KadId da = a.contact.id ^ lookup.target, db = b.id ^ lookup.target;
        if (da != db) return da < db;
        return a.contact.id < b.id;
      });
  if (pos != lookup.candidates.end() && pos->contact.id == contact.id) return;
  lookup.candidates.insert(pos, Candidate{contact, Candidate::State::kFresh});
}

void KadNode::step_lookup(Lookup& lookup) {
  // Issue up to alpha parallel RPCs against the k best candidates.
  std::size_t window = std::min(config_.k, lookup.candidates.size());
  for (std::size_t i = 0; i < window && lookup.inflight < config_.alpha; ++i) {
    Candidate& cand = lookup.candidates[i];
    if (cand.state != Candidate::State::kFresh) continue;
    cand.state = Candidate::State::kInflight;
    ++lookup.inflight;
    KadPacket req = lookup.find_value
                        ? make_packet(FindValue{self_, lookup.target})
                        : make_packet(FindNode{self_, lookup.target});
    issue_rpc(cand.contact, std::move(req), lookup.id, 0);
  }
  if (lookup.inflight > 0) return;
  // Converged: every candidate in the k-window has answered or failed.
  for (std::size_t i = 0; i < window; ++i) {
    if (lookup.candidates[i].state == Candidate::State::kFresh) return;
  }
  finish_lookup(lookup.id);
}

void KadNode::finish_lookup(std::uint64_t lookup_id) {
  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup lookup = std::move(it->second);
  lookups_.erase(it);
  ++stats_.lookups_completed;

  if (lookup.purpose == LookupPurpose::kPublish) {
    // STORE at the k closest nodes that answered.
    std::size_t sent = 0;
    for (const auto& cand : lookup.candidates) {
      if (sent >= config_.k) break;
      if (cand.state != Candidate::State::kDone) continue;
      issue_rpc(cand.contact, make_packet(Store{self_, lookup.publish_entries}),
                0, 0);
      ++stats_.stores_sent;
      ++sent;
    }
  } else if (lookup.purpose == LookupPurpose::kSearch) {
    auto sit = searches_.find(lookup.search_id);
    if (sit != searches_.end() && !sit->second.server_tried &&
        sit->second.results < config_.server_min_results &&
        server_cache_ != nullptr && server_cache_->size() > 0) {
      // DHT came up short: fall back to an index server.
      sit->second.server_tried = true;
      auto servers = server_cache_->sample(rng_, 1);
      if (!servers.empty()) {
        Contact server{node_id_for(servers[0]), servers[0], false};
        ++stats_.server_queries_sent;
        KadMetrics::get().server_queries.add(1);
        issue_rpc(server,
                  make_packet(ServerQuery{sit->second.id, sit->second.query}),
                  0, sit->second.id);
      }
    }
  }
}

void KadNode::rpc_failed(sim::ConnId conn, ConnState& state) {
  ++stats_.rpcs_failed;
  KadMetrics::get().rpcs_failed.add(1);
  routing_.fail(state.target.id);
  std::uint64_t lookup_id = state.lookup_id;
  KadId target_id = state.target.id;
  conns_.erase(conn);
  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup& lookup = it->second;
  for (auto& cand : lookup.candidates) {
    if (cand.contact.id == target_id &&
        cand.state == Candidate::State::kInflight) {
      cand.state = Candidate::State::kFailed;
      if (lookup.inflight > 0) --lookup.inflight;
      break;
    }
  }
  step_lookup(lookup);
}

// ---------------------------------------------------------------------------
// RPC plumbing
// ---------------------------------------------------------------------------

void KadNode::issue_rpc(const Contact& target, KadPacket request,
                        std::uint64_t lookup_id, std::uint64_t search_id) {
  ++stats_.rpcs_sent;
  KadMetrics::get().rpcs_sent.add(1);
  auto target_node = network().lookup(target.addr);
  if (!target_node) {
    // Dead endpoint: count the liveness failure asynchronously so the
    // lookup state machine never re-enters from inside issue_rpc.
    KadId target_id = target.id;
    network().schedule_node(
        id(), sim::SimDuration::millis(1), [this, target_id, lookup_id] {
          ++stats_.rpcs_failed;
          KadMetrics::get().rpcs_failed.add(1);
          routing_.fail(target_id);
          auto it = lookups_.find(lookup_id);
          if (it == lookups_.end()) return;
          for (auto& cand : it->second.candidates) {
            if (cand.contact.id == target_id &&
                cand.state == Candidate::State::kInflight) {
              cand.state = Candidate::State::kFailed;
              if (it->second.inflight > 0) --it->second.inflight;
              break;
            }
          }
          step_lookup(it->second);
        });
    return;
  }
  sim::ConnId conn = network().connect(id(), *target_node);
  ConnState state;
  state.kind = ConnKind::kRpcOut;
  state.request = std::move(request);
  state.target = target;
  state.lookup_id = lookup_id;
  state.search_id = search_id;
  conns_.emplace(conn, std::move(state));
  // Watchdog: a fault-dropped request or reply would otherwise pin this
  // connection (and a lookup slot) open forever.
  network().schedule_node(id(), config_.lookup_timeout, [this, conn] {
    auto it = conns_.find(conn);
    if (it == conns_.end() || it->second.replied) return;
    network().close(conn, id());
    rpc_failed(conn, it->second);
  });
}

void KadNode::send_pkt(sim::ConnId conn, const KadPacket& pkt) {
  network().send(conn, id(), serialize(pkt));
}

void KadNode::on_connection_open(sim::ConnId conn, sim::NodeId peer,
                                 bool initiated) {
  (void)peer;
  if (!initiated) {
    conns_.emplace(conn, ConnState{});  // kIn by default
    return;
  }
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState& state = it->second;
  if (state.kind == ConnKind::kRpcOut) {
    send_pkt(conn, state.request);
  } else if (state.kind == ConnKind::kTransferOut) {
    auto dit = pending_downloads_.find(state.download_id);
    if (dit == pending_downloads_.end()) {
      network().close(conn, id());
      conns_.erase(it);
      return;
    }
    dit->second.transfer_started = true;
    network().send(conn, id(), files::make_get(dit->second.entry.md5));
  }
}

void KadNode::on_connection_failed(sim::ConnId conn, sim::NodeId target) {
  (void)target;
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  if (it->second.kind == ConnKind::kTransferOut) {
    std::uint64_t did = it->second.download_id;
    conns_.erase(it);
    fail_download(did, "connect failed");
    return;
  }
  rpc_failed(conn, it->second);
}

void KadNode::on_connection_closed(sim::ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  if (it->second.kind == ConnKind::kTransferOut) {
    std::uint64_t did = it->second.download_id;
    conns_.erase(it);
    fail_download(did, "connection closed");
    return;
  }
  if (it->second.kind == ConnKind::kRpcOut && !it->second.replied) {
    rpc_failed(conn, it->second);
    return;
  }
  conns_.erase(it);
}

void KadNode::on_message(sim::ConnId conn, const util::Payload& payload) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState& state = it->second;
  util::ByteView wire{payload.data(), payload.size()};

  if (state.kind == ConnKind::kTransferOut) {
    auto response = files::parse_response(wire);
    std::uint64_t did = state.download_id;
    network().close(conn, id());
    conns_.erase(it);
    auto dit = pending_downloads_.find(did);
    if (dit == pending_downloads_.end()) return;
    if (!response || response->status != 200) {
      fail_download(did, response ? "not found" : "malformed response");
      return;
    }
    PendingDownload download = std::move(dit->second);
    pending_downloads_.erase(dit);
    ++stats_.downloads_ok;
    if (download_callback_) {
      KadDownloadOutcome outcome;
      outcome.request_id = did;
      outcome.success = true;
      outcome.path = download.entry.filename;
      outcome.content = std::move(response->body);
      outcome.source = download.entry.owner;
      download_callback_(outcome);
    }
    return;
  }

  auto pkt = parse(wire);
  if (!pkt) {
    if (state.kind == ConnKind::kIn) {
      // First message on an accepted connection may be a transfer GET.
      if (auto md5 = files::parse_get(wire)) {
        handle_transfer_request(conn, wire);
        return;
      }
    }
    ++stats_.dropped_malformed;
    KadMetrics::get().dropped_malformed.add(1);
    bool awaiting_reply = state.kind == ConnKind::kRpcOut && !state.replied;
    if (awaiting_reply) {
      network().close(conn, id());
      rpc_failed(conn, state);
    } else {
      network().close(conn, id());
      conns_.erase(it);
    }
    return;
  }

  if (state.kind == ConnKind::kRpcOut) {
    handle_reply(conn, state, *pkt);
  } else {
    handle_request(conn, *pkt);
  }
}

void KadNode::handle_request(sim::ConnId conn, const KadPacket& pkt) {
  OBS_SPAN("kad.handle_request");
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, Ping>) {
          if (!p.sender.firewalled) routing_.observe(p.sender);
          send_pkt(conn, make_packet(Pong{self_}));
        } else if constexpr (std::is_same_v<T, FindNode>) {
          if (!p.sender.firewalled) routing_.observe(p.sender);
          ++stats_.finds_handled;
          KadMetrics::get().finds_handled.add(1);
          send_pkt(conn,
                   make_packet(FindNodeReply{routing_.closest(p.target, config_.k)}));
        } else if constexpr (std::is_same_v<T, FindValue>) {
          if (!p.sender.firewalled) routing_.observe(p.sender);
          ++stats_.finds_handled;
          KadMetrics::get().finds_handled.add(1);
          FindValueReply reply;
          auto sit = store_.find(p.key);
          if (sit != store_.end()) {
            std::size_t n = std::min(sit->second.size(), config_.reply_entries);
            reply.entries.assign(sit->second.begin(),
                                 sit->second.begin() + static_cast<std::ptrdiff_t>(n));
          }
          reply.contacts = routing_.closest(p.key, config_.k);
          send_pkt(conn, make_packet(std::move(reply)));
          if (observe_callback_) {
            KadObservation obs;
            obs.kind = KadObservation::Kind::kQuery;
            obs.at = network().now();
            obs.keyword = p.key;
            obs.peer = p.sender.addr;
            obs.peer_firewalled = p.sender.firewalled;
            observe_callback_(obs);
          }
        } else if constexpr (std::is_same_v<T, Store>) {
          if (!p.sender.firewalled) routing_.observe(p.sender);
          ++stats_.stores_received;
          KadMetrics::get().stores_received.add(1);
          std::uint32_t stored = 0;
          for (const auto& entry : p.entries) {
            auto& slot = store_[entry.keyword];
            auto existing = std::find_if(
                slot.begin(), slot.end(), [&](const SourceEntry& e) {
                  return e.owner == entry.owner && e.md5 == entry.md5;
                });
            if (existing != slot.end()) {
              *existing = entry;
              ++stored;
            } else if (slot.size() < config_.store_capacity) {
              slot.push_back(entry);
              ++stored;
              ++stats_.entries_stored;
              KadMetrics::get().entries_stored.add(1);
            }
            if (observe_callback_) {
              KadObservation obs;
              obs.kind = KadObservation::Kind::kStore;
              obs.at = network().now();
              obs.keyword = entry.keyword;
              obs.filename = entry.filename;
              obs.size = entry.size;
              obs.md5 = entry.md5;
              obs.peer = p.sender.addr;
              obs.peer_firewalled = p.sender.firewalled;
              observe_callback_(obs);
            }
          }
          send_pkt(conn, make_packet(StoreReply{stored}));
        } else {
          // Replies and server verbs are not valid requests here.
          ++stats_.dropped_malformed;
          KadMetrics::get().dropped_malformed.add(1);
          network().close(conn, id());
          conns_.erase(conn);
        }
      },
      pkt.payload);
}

void KadNode::handle_reply(sim::ConnId conn, ConnState& state,
                           const KadPacket& pkt) {
  state.replied = true;
  std::uint64_t lookup_id = state.lookup_id;
  std::uint64_t search_id = state.search_id;
  Contact target = state.target;
  network().close(conn, id());
  conns_.erase(conn);

  bool ok = false;
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, Pong>) {
          ok = true;
        } else if constexpr (std::is_same_v<T, FindNodeReply>) {
          ok = true;
          auto it = lookups_.find(lookup_id);
          if (it != lookups_.end()) {
            for (const auto& c : p.contacts) merge_candidate(it->second, c);
          }
        } else if constexpr (std::is_same_v<T, FindValueReply>) {
          ok = true;
          auto it = lookups_.find(lookup_id);
          if (it != lookups_.end()) {
            for (const auto& c : p.contacts) merge_candidate(it->second, c);
            if (it->second.purpose == LookupPurpose::kSearch) {
              deliver_entries(it->second.search_id, p.entries);
            }
          }
        } else if constexpr (std::is_same_v<T, StoreReply>) {
          ok = true;
        } else if constexpr (std::is_same_v<T, ServerQueryReply>) {
          ok = true;
          deliver_entries(search_id, p.entries);
        }
      },
      pkt.payload);

  if (!ok) {
    // Wrong packet type for a reply: liveness failure.
    ++stats_.rpcs_failed;
    KadMetrics::get().rpcs_failed.add(1);
    routing_.fail(target.id);
  } else {
    routing_.observe(target);
  }

  auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  Lookup& lookup = it->second;
  for (auto& cand : lookup.candidates) {
    if (cand.contact.id == target.id &&
        cand.state == Candidate::State::kInflight) {
      cand.state = ok ? Candidate::State::kDone : Candidate::State::kFailed;
      if (lookup.inflight > 0) --lookup.inflight;
      break;
    }
  }
  step_lookup(lookup);
}

// ---------------------------------------------------------------------------
// Searching
// ---------------------------------------------------------------------------

std::uint64_t KadNode::search(const std::string& query) {
  std::uint64_t sid = next_search_id_++;
  ++stats_.searches_sent;
  KadMetrics::get().searches_sent.add(1);
  Search s;
  s.id = sid;
  s.query = query;
  searches_.emplace(sid, std::move(s));

  auto tokens = util::keywords(query);
  std::string primary;
  for (const auto& t : tokens) {
    if (t.size() >= 3) {
      primary = t;
      break;
    }
  }
  if (primary.empty() && !tokens.empty()) primary = tokens.front();
  if (!primary.empty()) {
    std::uint64_t lid = start_lookup(keyword_id(primary), LookupPurpose::kSearch, true);
    auto lit = lookups_.find(lid);
    if (lit != lookups_.end()) lit->second.search_id = sid;
  }
  network().schedule_node(id(), config_.search_window, [this, sid] {
    searches_.erase(sid);
    if (search_end_callback_) search_end_callback_(sid);
  });
  return sid;
}

void KadNode::deliver_entries(std::uint64_t search_id,
                              const std::vector<SourceEntry>& entries) {
  auto it = searches_.find(search_id);
  if (it == searches_.end()) return;
  Search& s = it->second;
  for (const auto& entry : entries) {
    if (!util::keyword_match(s.query, entry.filename)) continue;
    auto key = std::make_pair(entry.owner.str(), files::hex(entry.md5));
    if (!s.seen.insert(key).second) continue;
    ++s.results;
    ++stats_.results_received;
    KadMetrics::get().results_received.add(1);
    if (result_callback_) {
      result_callback_(KadSearchEvent{s.id, entry, network().now()});
    }
  }
}

// ---------------------------------------------------------------------------
// Publishing
// ---------------------------------------------------------------------------

void KadNode::publish_pass() {
  // Group this node's sources by keyword, then walk each keyword's
  // neighborhood and STORE (staggered to smooth the connection burst).
  std::map<KadId, std::vector<SourceEntry>> by_keyword;
  for (const auto& share : shares_) {
    std::string filename = files::basename_of(share.path);
    SourceEntry entry;
    entry.filename = filename;
    entry.size = share.content->size();
    entry.md5 = share.content->md5();
    entry.owner = self_.addr;
    entry.firewalled = self_.firewalled;
    for (const auto& token : publish_tokens(filename, config_.publish_keywords)) {
      entry.keyword = keyword_id(token);
      by_keyword[entry.keyword].push_back(entry);
    }
  }
  std::int64_t stagger_ms = 0;
  for (auto& [keyword, entries] : by_keyword) {
    network().schedule_node(
        id(), sim::SimDuration::millis(stagger_ms),
        [this, keyword = keyword, entries = std::move(entries)]() mutable {
          std::uint64_t lid =
              start_lookup(keyword, LookupPurpose::kPublish, false);
          auto it = lookups_.find(lid);
          if (it != lookups_.end()) {
            it->second.publish_entries = std::move(entries);
          }
        });
    stagger_ms += 500;
  }
  network().schedule_node(id(), sim::SimDuration::millis(stagger_ms + 1000),
                          [this] { register_at_server(); });
  network().schedule_node(
      id(),
      config_.republish_interval +
          sim::SimDuration::seconds(static_cast<std::int64_t>(rng_.range(0, 60))),
      [this] { publish_pass(); });
}

void KadNode::register_at_server() {
  if (server_cache_ == nullptr || server_cache_->size() == 0 || shares_.empty()) {
    return;
  }
  auto servers = server_cache_->sample(rng_, 1);
  if (servers.empty()) return;
  ServerRegister reg;
  reg.owner = self_.addr;
  reg.firewalled = self_.firewalled;
  for (const auto& share : shares_) {
    std::string filename = files::basename_of(share.path);
    SourceEntry entry;
    auto tokens = publish_tokens(filename, 1);
    entry.keyword = tokens.empty() ? KadId{} : keyword_id(tokens.front());
    entry.filename = filename;
    entry.size = share.content->size();
    entry.md5 = share.content->md5();
    entry.owner = self_.addr;
    entry.firewalled = self_.firewalled;
    reg.entries.push_back(std::move(entry));
  }
  Contact server{node_id_for(servers[0]), servers[0], false};
  issue_rpc(server, make_packet(std::move(reg)), 0, 0);
}

// ---------------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------------

std::uint64_t KadNode::download(const SourceEntry& entry) {
  std::uint64_t did = next_download_id_++;
  pending_downloads_.emplace(did, PendingDownload{did, entry, false});
  if (entry.firewalled) {
    network().schedule_node(id(), sim::SimDuration::millis(1),
                            [this, did] { fail_download(did, "firewalled"); });
    return did;
  }
  auto target = network().lookup(entry.owner);
  if (!target) {
    network().schedule_node(id(), sim::SimDuration::millis(1),
                            [this, did] { fail_download(did, "unreachable"); });
    return did;
  }
  sim::ConnId conn = network().connect(id(), *target);
  ConnState state;
  state.kind = ConnKind::kTransferOut;
  state.download_id = did;
  conns_.emplace(conn, std::move(state));
  network().schedule_node(id(), config_.download_timeout, [this, did, conn] {
    if (pending_downloads_.count(did) == 0) return;
    if (conns_.count(conn) != 0) {
      network().close(conn, id());
      conns_.erase(conn);
    }
    fail_download(did, "timeout");
  });
  return did;
}

void KadNode::handle_transfer_request(sim::ConnId conn, util::ByteView wire) {
  auto md5 = files::parse_get(wire);
  if (!md5) return;
  auto it = md5_to_share_.find(files::hex(*md5));
  if (it == md5_to_share_.end()) {
    network().send(conn, id(), files::make_response(404, nullptr));
    return;
  }
  ++stats_.uploads_served;
  KadMetrics::get().uploads_served.add(1);
  network().send(conn, id(),
                 files::make_response(200, &shares_[it->second].content->bytes()));
}

void KadNode::fail_download(std::uint64_t id_, const std::string& error) {
  auto it = pending_downloads_.find(id_);
  if (it == pending_downloads_.end()) return;
  PendingDownload download = std::move(it->second);
  pending_downloads_.erase(it);
  ++stats_.downloads_failed;
  if (download_callback_) {
    KadDownloadOutcome outcome;
    outcome.request_id = id_;
    outcome.success = false;
    outcome.path = download.entry.filename;
    outcome.source = download.entry.owner;
    outcome.error = error;
    download_callback_(outcome);
  }
}

std::size_t KadNode::indexed_sources() const {
  std::size_t n = 0;
  for (const auto& [keyword, entries] : store_) n += entries.size();
  return n;
}

// ---------------------------------------------------------------------------
// Index server
// ---------------------------------------------------------------------------

KadIndexServer::KadIndexServer(std::string alias, std::size_t reply_entries)
    : alias_(std::move(alias)), reply_entries_(reply_entries) {}

void KadIndexServer::on_message(sim::ConnId conn, const util::Payload& payload) {
  auto pkt = parse({payload.data(), payload.size()});
  if (!pkt) {
    network().close(conn, id());
    return;
  }
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, ServerRegister>) {
          OwnerSources sources;
          sources.firewalled = p.firewalled;
          sources.entries = p.entries;
          index_[p.owner.str()] = std::move(sources);
          network().send(conn, id(),
                         serialize(make_packet(StoreReply{
                             static_cast<std::uint32_t>(p.entries.size())})));
        } else if constexpr (std::is_same_v<T, ServerQuery>) {
          ServerQueryReply reply;
          reply.query_id = p.query_id;
          for (const auto& [owner, sources] : index_) {
            if (reply.entries.size() >= reply_entries_) break;
            for (const auto& entry : sources.entries) {
              if (reply.entries.size() >= reply_entries_) break;
              if (util::keyword_match(p.query, entry.filename)) {
                reply.entries.push_back(entry);
              }
            }
          }
          network().send(conn, id(), serialize(make_packet(std::move(reply))));
        } else if constexpr (std::is_same_v<T, Ping>) {
          network().send(conn, id(),
                         serialize(make_packet(Pong{Contact{}})));
        } else {
          network().close(conn, id());
        }
      },
      pkt->payload);
}

std::size_t KadIndexServer::sources() const {
  std::size_t n = 0;
  for (const auto& [owner, sources] : index_) n += sources.entries.size();
  return n;
}

}  // namespace p2p::kad
