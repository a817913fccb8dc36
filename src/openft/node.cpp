#include "openft/node.h"

#include <algorithm>
#include <charconv>

#include "files/transfer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace p2p::openft {

namespace {

// Network-wide counters shared by every FT node (per-instance numbers stay
// in FtStats); see DESIGN.md "Observability" for the metric families.
struct OpenFtMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& searches_sent = r.counter("openft.searches_sent");
  obs::Counter& searches_handled = r.counter("openft.searches_handled");
  obs::Counter& searches_forwarded = r.counter("openft.searches_forwarded");
  obs::Counter& results_sent = r.counter("openft.results_sent");
  obs::Counter& results_received = r.counter("openft.results_received");
  obs::Counter& shares_indexed = r.counter("openft.shares_indexed");
  obs::Counter& uploads_served = r.counter("openft.uploads_served");
  obs::Counter& pushes_relayed = r.counter("openft.pushes_relayed");
  obs::Counter& dropped_malformed = r.counter("openft.dropped_malformed");
  obs::Counter& sessions_established = r.counter("openft.sessions_established");

  static OpenFtMetrics& get() { return obs::bound_metrics<OpenFtMetrics>(); }
};

util::Payload make_push_delivery(const files::Digest16& md5, const util::Bytes& body) {
  return util::encode_payload(
      [&](util::ByteWriter& w) {
        w.str("PUSH ");
        w.hex(md5);
        w.u8(' ');
        w.str(std::to_string(body.size()));
        w.str("\r\n\r\n");
      },
      body);
}

struct ParsedPush {
  files::Digest16 md5{};
  util::Bytes body;
};

std::optional<ParsedPush> parse_push_delivery(util::ByteView wire) {
  std::string_view text = util::as_view(wire);
  if (!text.starts_with("PUSH ")) return std::nullopt;
  std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  auto parts = util::split(text.substr(5, head_end - 5), " ");
  if (parts.size() != 2) return std::nullopt;
  ParsedPush out;
  if (!util::from_hex_into(parts[0], out.md5)) return std::nullopt;
  out.body.assign(wire.begin() + static_cast<std::ptrdiff_t>(head_end + 4), wire.end());
  std::size_t expect = 0;
  auto [p, ec] =
      std::from_chars(parts[1].data(), parts[1].data() + parts[1].size(), expect);
  if (ec != std::errc{} || expect != out.body.size()) return std::nullopt;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

FtNode::FtNode(FtConfig config, std::vector<FtShare> shares,
               std::shared_ptr<FtHostCache> search_node_cache, std::uint64_t rng_seed,
               std::shared_ptr<FtHostCache> index_node_cache)
    : config_(std::move(config)),
      shares_(std::move(shares)),
      search_cache_(std::move(search_node_cache)),
      index_cache_(std::move(index_node_cache)),
      rng_(rng_seed) {
  own_share_meta_.reserve(shares_.size());
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    ShareMeta meta;
    meta.md5 = shares_[i].content->md5();
    meta.size = static_cast<std::uint32_t>(shares_[i].content->size());
    meta.path = shares_[i].path;
    meta.keywords = util::keywords(shares_[i].path);
    own_share_meta_.push_back(std::move(meta));
    // First registration wins for md5 resolution (same content under many
    // paths is served identically).
    md5_to_share_.emplace(files::hex(shares_[i].content->md5()), i);
  }
}

NodeInfo FtNode::self_info() const {
  const auto& prof = network().profile(id());
  NodeInfo info;
  info.klass = config_.klass;
  info.addr = util::Endpoint{prof.ip, prof.port};
  info.http_port = prof.behind_nat ? 0 : prof.port;
  info.alias = config_.alias;
  return info;
}

void FtNode::start() {
  ensure_sessions();
  if (is_search_node() && index_cache_) {
    network().schedule_node(id(), config_.stats_interval,
                            [this] { report_stats_loop(); });
  }
}

void FtNode::report_stats_loop() {
  Stats report;
  report.users = static_cast<std::uint32_t>(child_count());
  std::uint64_t shares = 0, bytes = 0;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionIn && st.child.is_child) {
      shares += st.child.shares.size();
      for (const auto& s : st.child.shares) bytes += s.size;
    }
  }
  report.shares = static_cast<std::uint32_t>(shares);
  report.size_mb = static_cast<std::uint32_t>(bytes / (1024 * 1024));
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionOut && st.session == SessionState::kEstablished &&
        st.have_peer_info && (st.peer_info.klass & kIndex) != 0) {
      send_pkt(cid, make_packet(report));
    }
  }
  network().schedule_node(id(), config_.stats_interval,
                          [this] { report_stats_loop(); });
}

Stats FtNode::network_stats() const {
  Stats total;
  for (const auto& [cid, st] : conns_) {
    if (st.has_reported_stats) {
      total.users += st.reported_stats.users;
      total.shares += st.reported_stats.shares;
      total.size_mb += st.reported_stats.size_mb;
    }
  }
  return total;
}

std::size_t FtNode::session_count() const {
  std::size_t n = 0;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionOut && st.session == SessionState::kEstablished) {
      ++n;
    }
  }
  return n;
}

std::size_t FtNode::child_count() const {
  std::size_t n = 0;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionIn && st.child.is_child) ++n;
  }
  return n;
}

void FtNode::ensure_sessions() {
  // Pure INDEX nodes are passive: they accept sessions but do not seek
  // search parents of their own.
  std::size_t target = is_search_node() ? config_.search_peers
                       : is_index_node() ? 0
                                         : config_.parent_count;
  std::size_t have = pending_session_connects_;
  std::size_t index_have = 0;
  std::vector<sim::NodeId> peers;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionOut) {
      if (st.to_index) {
        ++index_have;
      } else if (st.session != SessionState::kNone) {
        ++have;
      }
      peers.push_back(st.peer);
    }
  }

  const auto& prof = network().profile(id());
  util::Endpoint self{prof.ip, prof.port};
  auto connect_to = [&](const util::Endpoint& ep, bool to_index) -> bool {
    if (ep == self) return false;
    auto node_id = network().lookup(ep);
    if (!node_id || *node_id == id()) return false;
    if (std::find(peers.begin(), peers.end(), *node_id) != peers.end()) return false;
    sim::ConnId cid = network().connect(id(), *node_id);
    ConnState st;
    st.kind = ConnKind::kSessionOut;
    st.peer = *node_id;
    st.to_index = to_index;
    conns_[cid] = st;
    if (!to_index) ++pending_session_connects_;
    peers.push_back(*node_id);
    return true;
  };

  if (have < target) {
    for (const auto& ep : search_cache_->sample(rng_, (target - have) * 3 + 2)) {
      if (have >= target) break;
      if (connect_to(ep, /*to_index=*/false)) ++have;
    }
  }
  // Search nodes additionally keep sessions to INDEX nodes for reporting.
  if (is_search_node() && index_cache_ && index_have < config_.index_parents) {
    for (const auto& ep : index_cache_->sample(
             rng_, (config_.index_parents - index_have) * 2 + 1)) {
      if (index_have >= config_.index_parents) break;
      if (connect_to(ep, /*to_index=*/true)) ++index_have;
    }
  }
  if (have < target ||
      (is_search_node() && index_cache_ && index_have < config_.index_parents)) {
    network().schedule_node(id(), config_.reconnect_delay * 4,
                            [this] { ensure_sessions(); });
  }
}

void FtNode::on_connection_open(sim::ConnId conn, sim::NodeId peer, bool initiated) {
  if (!initiated) {
    ConnState st;
    st.kind = ConnKind::kUnknown;
    st.peer = peer;
    conns_[conn] = st;
    return;
  }
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState& st = it->second;
  switch (st.kind) {
    case ConnKind::kSessionOut:
      if (!st.to_index && pending_session_connects_ > 0) --pending_session_connects_;
      send_pkt(conn, make_packet(VersionRequest{}));
      st.session = SessionState::kVersionSent;
      break;
    case ConnKind::kTransferOut: {
      auto pending = pending_downloads_.find(st.download_id);
      if (pending == pending_downloads_.end()) {
        network().close(conn, id());
        conns_.erase(conn);
        return;
      }
      pending->second.transfer_started = true;
      network().send(conn, id(), files::make_get(pending->second.entry.md5));
      break;
    }
    case ConnKind::kBrowseOut:
      send_pkt(conn, make_packet(BrowseRequest{st.browse_id}));
      break;
    case ConnKind::kPushServe: {
      auto share = md5_to_share_.find(files::hex(st.push_md5));
      if (share != md5_to_share_.end()) {
        const auto& content = shares_[share->second].content;
        network().send(conn, id(), make_push_delivery(st.push_md5, content->bytes()));
        ++stats_.uploads_served;
        OpenFtMetrics::get().uploads_served.add(1);
      }
      // Requester closes once it has the body.
      break;
    }
    default:
      break;
  }
}

void FtNode::on_connection_failed(sim::ConnId conn, sim::NodeId target) {
  (void)target;
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState st = it->second;
  conns_.erase(it);
  switch (st.kind) {
    case ConnKind::kSessionOut:
      if (!st.to_index && pending_session_connects_ > 0) --pending_session_connects_;
      network().schedule_node(id(), config_.reconnect_delay,
                              [this] { ensure_sessions(); });
      break;
    case ConnKind::kTransferOut:
      fail_download(st.download_id, "connect failed");
      break;
    case ConnKind::kBrowseOut:
      if (browse_end_callback_) browse_end_callback_(st.browse_id, 0, false);
      break;
    default:
      break;
  }
}

void FtNode::on_connection_closed(sim::ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState st = it->second;
  conns_.erase(it);
  if (st.kind == ConnKind::kSessionOut) {
    network().schedule_node(id(), config_.reconnect_delay,
                            [this] { ensure_sessions(); });
  }
  if (st.kind == ConnKind::kTransferOut && pending_downloads_.contains(st.download_id)) {
    fail_download(st.download_id, "connection closed mid-transfer");
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void FtNode::send_pkt(sim::ConnId conn, const FtPacket& pkt) {
  network().send(conn, id(), serialize(pkt));
}

void FtNode::on_message(sim::ConnId conn, const util::Payload& payload) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState& state = it->second;

  switch (state.kind) {
    case ConnKind::kUnknown: {
      std::string_view text = util::as_view(payload);
      if (text.starts_with("GET ")) {
        state.kind = ConnKind::kTransferIn;
        handle_transfer_message(conn, state, payload);
        return;
      }
      if (text.starts_with("PUSH ")) {
        handle_transfer_message(conn, state, payload);
        return;
      }
      if (auto pkt = parse(payload)) {
        state.kind = ConnKind::kSessionIn;
        handle_packet(conn, state, *pkt);
        return;
      }
      ++stats_.dropped_malformed;
      OpenFtMetrics::get().dropped_malformed.add(1);
      network().close(conn, id());
      conns_.erase(conn);
      return;
    }
    case ConnKind::kSessionOut:
    case ConnKind::kSessionIn:
    case ConnKind::kBrowseOut: {
      if (auto pkt = parse(payload)) {
        handle_packet(conn, state, *pkt);
      } else {
        ++stats_.dropped_malformed;
      OpenFtMetrics::get().dropped_malformed.add(1);
      }
      return;
    }
    case ConnKind::kTransferOut:
    case ConnKind::kTransferIn:
    case ConnKind::kPushServe:
      handle_transfer_message(conn, state, payload);
      return;
  }
}

void FtNode::session_established(sim::ConnId conn, ConnState& state) {
  state.session = SessionState::kEstablished;
  OpenFtMetrics::get().sessions_established.add(1);
  P2P_TRACE(obs::Component::kOpenFt, "session_established", network().now(),
            obs::tf("node", id()), obs::tf("peer_klass", state.peer_info.klass));
  // A USER registers as a child of SEARCH parents it connected to.
  if (state.kind == ConnKind::kSessionOut && !is_search_node() &&
      (config_.klass & kUser) != 0 && (state.peer_info.klass & kSearch) != 0) {
    send_pkt(conn, make_packet(ChildRequest{}));
  }
}

void FtNode::handle_packet(sim::ConnId conn, ConnState& state, const FtPacket& pkt) {
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, VersionRequest>) {
          send_pkt(conn, make_packet(VersionResponse{0, 2, 1, 6}));
        } else if constexpr (std::is_same_v<T, VersionResponse>) {
          if (state.kind == ConnKind::kSessionOut &&
              state.session == SessionState::kVersionSent) {
            send_pkt(conn, make_packet(self_info()));
            send_pkt(conn, make_packet(SessionRequest{}));
            state.session = SessionState::kSessionSent;
          }
        } else if constexpr (std::is_same_v<T, NodeInfo>) {
          state.peer_info = p;
          state.have_peer_info = true;
        } else if constexpr (std::is_same_v<T, SessionRequest>) {
          send_pkt(conn, make_packet(self_info()));
          send_pkt(conn, make_packet(SessionResponse{true}));
          state.session = SessionState::kEstablished;
        } else if constexpr (std::is_same_v<T, SessionResponse>) {
          if (p.accepted) {
            session_established(conn, state);
          } else {
            network().close(conn, id());
            conns_.erase(conn);
          }
        } else if constexpr (std::is_same_v<T, ChildRequest>) {
          bool accept = is_search_node() && child_count() < config_.max_children &&
                        state.have_peer_info;
          if (accept) {
            state.child.is_child = true;
            state.child.info = state.peer_info;
          }
          send_pkt(conn, make_packet(ChildResponse{accept}));
        } else if constexpr (std::is_same_v<T, ChildResponse>) {
          if (p.accepted) {
            state.child_accepted = true;
            for (const auto& meta : own_share_meta_) {
              send_pkt(conn, make_packet(AddShare{meta.md5, meta.size, meta.path}));
            }
          }
        } else if constexpr (std::is_same_v<T, AddShare>) {
          if (state.child.is_child) {
            ShareMeta meta;
            meta.md5 = p.md5;
            meta.size = p.size;
            meta.path = p.path;
            meta.keywords = util::keywords(p.path);
            state.child.shares.push_back(std::move(meta));
            ++stats_.shares_indexed;
            OpenFtMetrics::get().shares_indexed.add(1);
          }
        } else if constexpr (std::is_same_v<T, RemShare>) {
          if (state.child.is_child) {
            auto& shares = state.child.shares;
            shares.erase(std::remove_if(shares.begin(), shares.end(),
                                        [&](const ShareMeta& m) { return m.md5 == p.md5; }),
                         shares.end());
          }
        } else if constexpr (std::is_same_v<T, SearchRequest>) {
          handle_search_request(conn, state, p);
        } else if constexpr (std::is_same_v<T, SearchResponse>) {
          if (our_searches_.contains(p.search_id)) {
            ++stats_.results_received;
            OpenFtMetrics::get().results_received.add(1);
            if (result_callback_) {
              result_callback_(FtSearchEvent{p.search_id, p, network().now()});
            }
          } else if (auto route = search_routes_.find(p.search_id);
                     route != search_routes_.end()) {
            send_pkt(route->second, make_packet(p));
          }
        } else if constexpr (std::is_same_v<T, SearchEnd>) {
          // Completion is handled by the client-side search window.
        } else if constexpr (std::is_same_v<T, PushRequest>) {
          handle_push_request(conn, p);
        } else if constexpr (std::is_same_v<T, Stats>) {
          // INDEX nodes aggregate per-session reports.
          if (is_index_node()) {
            state.reported_stats = p;
            state.has_reported_stats = true;
          }
        } else if constexpr (std::is_same_v<T, BrowseRequest>) {
          for (const auto& meta : own_share_meta_) {
            BrowseResponse resp;
            resp.browse_id = p.browse_id;
            resp.md5 = meta.md5;
            resp.size = meta.size;
            resp.path = meta.path;
            send_pkt(conn, make_packet(resp));
          }
          send_pkt(conn, make_packet(BrowseEnd{
                             p.browse_id,
                             static_cast<std::uint32_t>(own_share_meta_.size())}));
        } else if constexpr (std::is_same_v<T, BrowseResponse>) {
          if (state.kind == ConnKind::kBrowseOut && state.browse_id == p.browse_id &&
              browse_result_callback_) {
            browse_result_callback_(p);
          }
        } else if constexpr (std::is_same_v<T, BrowseEnd>) {
          if (state.kind == ConnKind::kBrowseOut && state.browse_id == p.browse_id) {
            std::uint64_t id_copy = p.browse_id;
            std::uint32_t total = p.total;
            network().close(conn, id());
            conns_.erase(conn);
            if (browse_end_callback_) browse_end_callback_(id_copy, total, true);
            return;  // `state` is dangling
          }
        }
      },
      pkt.payload);
}

// ---------------------------------------------------------------------------
// Searching
// ---------------------------------------------------------------------------

namespace {
bool share_matches(const std::vector<std::string>& query_tokens,
                   const std::vector<std::string>& share_tokens) {
  if (query_tokens.empty()) return false;
  for (const auto& q : query_tokens) {
    if (std::find(share_tokens.begin(), share_tokens.end(), q) == share_tokens.end()) {
      return false;
    }
  }
  return true;
}
}  // namespace

void FtNode::handle_search_request(sim::ConnId conn, ConnState& state,
                                   const SearchRequest& req) {
  OBS_SPAN("openft.handle_search");
  (void)state;
  if (!is_search_node()) return;
  if (search_routes_.contains(req.search_id)) return;  // duplicate
  search_routes_[req.search_id] = conn;
  if (search_routes_.size() > 100'000) {
    search_routes_.clear();
    search_routes_[req.search_id] = conn;
  }
  ++stats_.searches_handled;
  OpenFtMetrics::get().searches_handled.add(1);

  auto tokens = util::keywords(req.query);

  // Match children's registered shares.
  for (const auto& [cid, st] : conns_) {
    if (st.kind != ConnKind::kSessionIn || !st.child.is_child) continue;
    for (const auto& share : st.child.shares) {
      if (!share_matches(tokens, share.keywords)) continue;
      SearchResponse resp;
      resp.search_id = req.search_id;
      resp.owner = st.child.info.addr;
      resp.owner_http_port = st.child.info.http_port;
      resp.md5 = share.md5;
      resp.size = share.size;
      resp.path = share.path;
      resp.owner_firewalled = st.child.info.http_port == 0;
      send_pkt(conn, make_packet(resp));
      ++stats_.results_sent;
      OpenFtMetrics::get().results_sent.add(1);
    }
  }
  // Match our own shares (search nodes are usually users too).
  NodeInfo self = self_info();
  for (const auto& share : own_share_meta_) {
    if (!share_matches(tokens, share.keywords)) continue;
    SearchResponse resp;
    resp.search_id = req.search_id;
    resp.owner = self.addr;
    resp.owner_http_port = self.http_port;
    resp.md5 = share.md5;
    resp.size = share.size;
    resp.path = share.path;
    resp.owner_firewalled = self.http_port == 0;
    send_pkt(conn, make_packet(resp));
    ++stats_.results_sent;
      OpenFtMetrics::get().results_sent.add(1);
  }
  send_pkt(conn, make_packet(SearchEnd{req.search_id}));

  // Forward across the search mesh.
  if (req.ttl > 1) {
    SearchRequest fwd = req;
    fwd.ttl = static_cast<std::uint8_t>(req.ttl - 1);
    // Serialized once on first matching peer; the mesh shares the buffer.
    util::Payload wire;
    for (const auto& [cid, st] : conns_) {
      if (cid == conn) continue;
      if ((st.kind == ConnKind::kSessionOut || st.kind == ConnKind::kSessionIn) &&
          st.session == SessionState::kEstablished && st.have_peer_info &&
          (st.peer_info.klass & kSearch) != 0) {
        if (wire.empty()) wire = serialize(make_packet(fwd));
        network().send(cid, id(), wire);
        ++stats_.searches_forwarded;
        OpenFtMetrics::get().searches_forwarded.add(1);
      }
    }
  }
}

std::uint64_t FtNode::search(const std::string& query) {
  std::uint64_t search_id = rng_.next();
  our_searches_[search_id] = true;
  SearchRequest req;
  req.search_id = search_id;
  req.ttl = config_.search_ttl;
  req.query = query;
  util::Payload wire;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kSessionOut && st.session == SessionState::kEstablished &&
        st.have_peer_info && (st.peer_info.klass & kSearch) != 0) {
      if (wire.empty()) wire = serialize(make_packet(req));
      network().send(cid, id(), wire);
    }
  }
  ++stats_.searches_sent;
  OpenFtMetrics::get().searches_sent.add(1);
  network().schedule_node(id(), config_.search_window, [this, search_id] {
    our_searches_.erase(search_id);
    if (search_end_callback_) search_end_callback_(search_id);
  });
  return search_id;
}

// ---------------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------------

std::uint64_t FtNode::download(const SearchResponse& entry) {
  std::uint64_t did = next_download_id_++;
  PendingDownload pending;
  pending.id = did;
  pending.entry = entry;

  std::optional<sim::NodeId> target;
  if (!entry.owner_firewalled && entry.owner_http_port != 0 &&
      entry.owner.ip.is_publicly_routable()) {
    target = network().lookup(util::Endpoint{entry.owner.ip, entry.owner_http_port});
  }
  if (target) {
    sim::ConnId cid = network().connect(id(), *target);
    ConnState st;
    st.kind = ConnKind::kTransferOut;
    st.peer = *target;
    st.download_id = did;
    conns_[cid] = st;
    pending_downloads_[did] = std::move(pending);
  } else {
    pending.via_push = true;
    pending_downloads_[did] = std::move(pending);
    PushRequest push;
    const auto& prof = network().profile(id());
    push.requester = util::Endpoint{prof.ip, prof.port};
    push.md5 = entry.md5;
    util::Payload wire;
    for (const auto& [cid, st] : conns_) {
      if (st.kind == ConnKind::kSessionOut &&
          st.session == SessionState::kEstablished && st.have_peer_info &&
          (st.peer_info.klass & kSearch) != 0) {
        if (wire.empty()) wire = serialize(make_packet(push));
        network().send(cid, id(), wire);
      }
    }
  }
  network().schedule_node(id(), config_.download_timeout, [this, did] {
    if (pending_downloads_.contains(did)) fail_download(did, "timeout");
  });
  return did;
}

std::uint64_t FtNode::browse(const util::Endpoint& target) {
  std::uint64_t browse_id = next_browse_id_++;
  auto node_id = network().lookup(target);
  if (!node_id) {
    // Unreachable host: fail asynchronously for a uniform caller contract.
    network().schedule_node(id(), sim::SimDuration::millis(1), [this, browse_id] {
      if (browse_end_callback_) browse_end_callback_(browse_id, 0, false);
    });
    return browse_id;
  }
  sim::ConnId cid = network().connect(id(), *node_id);
  ConnState st;
  st.kind = ConnKind::kBrowseOut;
  st.peer = *node_id;
  st.browse_id = browse_id;
  conns_[cid] = st;
  return browse_id;
}

void FtNode::handle_push_request(sim::ConnId conn, const PushRequest& req) {
  (void)conn;
  // Do we own the file? Connect back and deliver.
  if (md5_to_share_.contains(files::hex(req.md5))) {
    auto requester = network().lookup(req.requester);
    if (!requester) return;
    sim::ConnId cid = network().connect(id(), *requester);
    ConnState st;
    st.kind = ConnKind::kPushServe;
    st.peer = *requester;
    st.push_md5 = req.md5;
    conns_[cid] = st;
    return;
  }
  // Search node: relay to the child that owns it.
  if (!is_search_node()) return;
  for (const auto& [cid, st] : conns_) {
    if (st.kind != ConnKind::kSessionIn || !st.child.is_child) continue;
    for (const auto& share : st.child.shares) {
      if (share.md5 == req.md5) {
        send_pkt(cid, make_packet(req));
        ++stats_.pushes_relayed;
        OpenFtMetrics::get().pushes_relayed.add(1);
        return;
      }
    }
  }
}

void FtNode::handle_transfer_message(sim::ConnId conn, ConnState& state,
                                     util::ByteView wire) {
  std::string_view text = util::as_view(wire);

  if (text.starts_with("GET ")) {
    auto md5 = files::parse_get(wire);
    util::Payload response;
    if (md5) {
      auto share = md5_to_share_.find(files::hex(*md5));
      if (share != md5_to_share_.end()) {
        response =
            files::make_response(200, &shares_[share->second].content->bytes());
        ++stats_.uploads_served;
        OpenFtMetrics::get().uploads_served.add(1);
      }
    }
    if (response.empty()) response = files::make_response(404, nullptr);
    network().send(conn, id(), response);
    return;
  }

  if (text.starts_with("PUSH ")) {
    auto push = parse_push_delivery(wire);
    network().close(conn, id());
    conns_.erase(conn);
    if (!push) return;
    for (auto it = pending_downloads_.begin(); it != pending_downloads_.end(); ++it) {
      if (it->second.via_push && it->second.entry.md5 == push->md5 &&
          !it->second.transfer_started) {
        FtDownloadOutcome outcome;
        outcome.request_id = it->second.id;
        outcome.success = true;
        outcome.path = it->second.entry.path;
        outcome.content = std::move(push->body);
        outcome.source = it->second.entry.owner;
        ++stats_.downloads_ok;
        pending_downloads_.erase(it);
        if (download_callback_) download_callback_(outcome);
        return;
      }
    }
    return;
  }

  if (state.kind == ConnKind::kTransferOut) {
    std::uint64_t did = state.download_id;
    network().close(conn, id());
    conns_.erase(conn);
    auto pending_it = pending_downloads_.find(did);
    if (pending_it == pending_downloads_.end()) return;
    PendingDownload pending = std::move(pending_it->second);
    pending_downloads_.erase(pending_it);

    auto resp = files::parse_response(wire);
    FtDownloadOutcome outcome;
    outcome.request_id = did;
    outcome.path = pending.entry.path;
    outcome.source = pending.entry.owner;
    if (resp && resp->status == 200) {
      outcome.success = true;
      outcome.content = std::move(resp->body);
      ++stats_.downloads_ok;
    } else {
      outcome.error = resp ? ("http " + std::to_string(resp->status)) : "malformed";
      ++stats_.downloads_failed;
    }
    if (download_callback_) download_callback_(outcome);
  }
}

void FtNode::fail_download(std::uint64_t did, const std::string& error) {
  auto it = pending_downloads_.find(did);
  if (it == pending_downloads_.end()) return;
  FtDownloadOutcome outcome;
  outcome.request_id = did;
  outcome.success = false;
  outcome.path = it->second.entry.path;
  outcome.source = it->second.entry.owner;
  outcome.error = error;
  pending_downloads_.erase(it);
  ++stats_.downloads_failed;
  if (download_callback_) download_callback_(outcome);
}

}  // namespace p2p::openft
