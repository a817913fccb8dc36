#include "gnutella/servent.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/strings.h"

namespace p2p::gnutella {

namespace {

// Network-wide counters shared by every servent (per-instance numbers stay
// in ServentStats); see DESIGN.md "Observability" for the metric families.
struct GnutellaMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& queries_received = r.counter("gnutella.queries_received");
  obs::Counter& queries_routed = r.counter("gnutella.queries_routed");
  obs::Counter& qrp_suppressed = r.counter("gnutella.qrp_suppressed");
  obs::Counter& hits_sent = r.counter("gnutella.hits_sent");
  obs::Counter& hits_routed = r.counter("gnutella.hits_routed");
  obs::Counter& hits_received = r.counter("gnutella.hits_received");
  obs::Counter& pushes_routed = r.counter("gnutella.pushes_routed");
  obs::Counter& uploads_served = r.counter("gnutella.uploads_served");
  obs::Counter& dropped_duplicate = r.counter("gnutella.dropped_duplicate");
  obs::Counter& dropped_ttl = r.counter("gnutella.dropped_ttl");
  obs::Counter& dropped_malformed = r.counter("gnutella.dropped_malformed");
  obs::Counter& links_established = r.counter("gnutella.links_established");
  obs::Counter& links_closed = r.counter("gnutella.links_closed");
  obs::Counter& recv_ping = r.counter("gnutella.recv_ping");
  obs::Counter& recv_pong = r.counter("gnutella.recv_pong");
  obs::Counter& recv_bye = r.counter("gnutella.recv_bye");
  obs::Counter& recv_qrp = r.counter("gnutella.recv_qrp");
  obs::Counter& recv_push = r.counter("gnutella.recv_push");
  obs::Counter& recv_query = r.counter("gnutella.recv_query");
  obs::Counter& recv_query_hit = r.counter("gnutella.recv_query_hit");
  obs::Histogram& hit_hops = r.histogram(
      "gnutella.hit_hops", obs::HistogramSpec::linear(0, 1, 16, obs::Unit::kHops));

  obs::Counter& recv_counter(MsgType type) {
    switch (type) {
      case MsgType::kPing: return recv_ping;
      case MsgType::kPong: return recv_pong;
      case MsgType::kBye: return recv_bye;
      case MsgType::kQrp: return recv_qrp;
      case MsgType::kPush: return recv_push;
      case MsgType::kQuery: return recv_query;
      case MsgType::kQueryHit: return recv_query_hit;
    }
    return recv_ping;
  }

  static GnutellaMetrics& get() { return obs::bound_metrics<GnutellaMetrics>(); }
};

using util::as_view;
using util::text_bytes;

std::string header_value(std::string_view text, std::string_view name) {
  // Case-sensitive match is fine: we emit our own handshakes.
  std::size_t pos = text.find(name);
  if (pos == std::string_view::npos) return {};
  std::size_t colon = text.find(':', pos);
  if (colon == std::string_view::npos) return {};
  std::size_t val = text.find_first_not_of(" ", colon + 1);
  if (val == std::string_view::npos) return {};
  std::size_t end = text.find("\r\n", val);
  if (end == std::string_view::npos) end = text.size();
  return std::string(text.substr(val, end - val));
}

bool header_flag(std::string_view text, std::string_view name) {
  std::string v = header_value(text, name);
  return !v.empty() && (v[0] == 'T' || v[0] == 't');
}

std::optional<util::Endpoint> listen_endpoint_of(std::string_view text) {
  auto ip = util::Ipv4::parse(header_value(text, "Listen-IP"));
  if (!ip) return std::nullopt;
  unsigned long port = std::strtoul(header_value(text, "Listen-Port").c_str(),
                                    nullptr, 10);
  if (port == 0 || port > 65535) return std::nullopt;
  return util::Endpoint{*ip, static_cast<std::uint16_t>(port)};
}

}  // namespace

// ---------------------------------------------------------------------------
// IndexAnswerer
// ---------------------------------------------------------------------------

std::vector<QueryHitResult> IndexAnswerer::answer(const std::string& criteria) {
  std::vector<QueryHitResult> out;
  for (const auto& m : index_.match(criteria)) {
    QueryHitResult r;
    r.index = m.index;
    r.size = static_cast<std::uint32_t>(m.file->size());
    r.filename = m.file->name();
    r.sha1 = m.file->sha1();
    out.push_back(std::move(r));
  }
  return out;
}

std::shared_ptr<const files::FileContent> IndexAnswerer::resolve(std::uint32_t index) {
  return index_.get(index);
}

void IndexAnswerer::populate_qrt(QueryRouteTable& qrt) const {
  qrt = index_.build_qrt(qrt.table_bits());
}

// ---------------------------------------------------------------------------
// Servent: lifecycle and topology
// ---------------------------------------------------------------------------

Servent::Servent(ServentConfig config, std::shared_ptr<QueryAnswerer> answerer,
                 std::shared_ptr<HostCache> host_cache, std::uint64_t rng_seed)
    : config_(config),
      answerer_(std::move(answerer)),
      host_cache_(std::move(host_cache)),
      rng_(rng_seed),
      servent_guid_(Guid::random(rng_)) {}

void Servent::start() { ensure_overlay_links(); }

util::Endpoint Servent::self_endpoint() const {
  const auto& p = network().profile(id());
  return util::Endpoint{p.ip, p.port};
}

bool Servent::self_firewalled() const { return network().profile(id()).behind_nat; }

std::size_t Servent::overlay_link_count() const {
  std::size_t n = 0;
  for (const auto& [cid, st] : conns_) {
    if ((st.kind == ConnKind::kOverlayOut || st.kind == ConnKind::kOverlayIn) &&
        st.hs == HsState::kEstablished) {
      ++n;
    }
  }
  return n;
}

std::size_t Servent::leaf_count() const {
  std::size_t n = 0;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kOverlayIn && st.hs == HsState::kEstablished &&
        !st.peer_ultrapeer) {
      ++n;
    }
  }
  return n;
}

void Servent::ensure_overlay_links() {
  std::size_t target = config_.ultrapeer ? config_.up_degree : config_.leaf_up_count;
  std::size_t have = pending_overlay_connects_;
  std::vector<sim::NodeId> connected_peers;
  for (const auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kOverlayOut) {
      // Pending (pre-open) links are already counted via
      // pending_overlay_connects_; just record the peer for dedup.
      if (st.hs == HsState::kNone) {
        connected_peers.push_back(st.peer);
      } else {
        ++have;
        connected_peers.push_back(st.peer);
      }
    }
    if (st.kind == ConnKind::kOverlayIn && st.hs == HsState::kEstablished &&
        st.peer_ultrapeer && config_.ultrapeer) {
      // Incoming UP links count toward degree so the mesh doesn't densify
      // unboundedly.
      ++have;
      connected_peers.push_back(st.peer);
    }
  }
  if (have >= target) return;

  auto candidates = host_cache_->sample(rng_, (target - have) * 3 + 2);
  // Mix in endpoints learned from pong caching: discovery beyond the
  // bootstrap cache (and the only path to ultrapeers the cache missed).
  for (const auto& ep : learned_hosts_) {
    if (std::find(candidates.begin(), candidates.end(), ep) == candidates.end()) {
      candidates.push_back(ep);
    }
  }
  util::Endpoint self = self_endpoint();
  for (const auto& ep : candidates) {
    if (have >= target) break;
    if (ep == self) continue;
    auto node_id = network().lookup(ep);
    if (!node_id || *node_id == id()) continue;
    if (std::find(connected_peers.begin(), connected_peers.end(), *node_id) !=
        connected_peers.end()) {
      continue;
    }
    sim::ConnId cid = network().connect(id(), *node_id);
    ConnState st;
    st.kind = ConnKind::kOverlayOut;
    st.peer = *node_id;
    conns_[cid] = st;
    ++pending_overlay_connects_;
    connected_peers.push_back(*node_id);
    ++have;
  }
  if (have < target) {
    // Host cache could not fill our slots; retry later.
    network().schedule_node(id(), config_.reconnect_delay * 4,
                            [this] { ensure_overlay_links(); });
  }
}

bool Servent::accept_connection(sim::NodeId from) {
  (void)from;
  // Admission is decided at handshake time (we cannot yet distinguish an
  // overlay link from a transfer connection); transfers are always welcome.
  return true;
}

void Servent::on_connection_open(sim::ConnId conn, sim::NodeId peer, bool initiated) {
  if (!initiated) {
    // Inbound: could be overlay handshake, HTTP GET, or GIV. Wait for the
    // first message to classify.
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
    case ConnKind::kOverlayOut:
      if (pending_overlay_connects_ > 0) --pending_overlay_connects_;
      send_handshake_connect(conn);
      break;
    case ConnKind::kTransferOut: {
      auto pending = pending_downloads_.find(st.download_id);
      if (pending == pending_downloads_.end()) {
        network().close(conn, id());
        conns_.erase(conn);
        return;
      }
      pending->second.transfer_started = true;
      HttpRequest req = make_get_request(pending->second.result.index,
                                         pending->second.result.filename);
      network().send(conn, id(), req.serialize());
      break;
    }
    case ConnKind::kPushOut: {
      // We are the firewalled server connecting back: announce with GIV.
      auto file = answerer_->resolve(st.download_id > 0
                                         ? static_cast<std::uint32_t>(st.download_id - 1)
                                         : 0);
      GivLine giv;
      giv.index = st.download_id > 0 ? static_cast<std::uint32_t>(st.download_id - 1) : 0;
      giv.servent_guid = servent_guid_;
      giv.filename = file ? file->name() : "unknown";
      network().send(conn, id(), giv.serialize());
      // Conversation continues as an upload: requester sends GET next.
      st.kind = ConnKind::kTransferIn;
      break;
    }
    default:
      break;
  }
}

void Servent::on_connection_failed(sim::ConnId conn, sim::NodeId target) {
  (void)target;
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState st = it->second;
  conns_.erase(it);
  switch (st.kind) {
    case ConnKind::kOverlayOut:
      if (pending_overlay_connects_ > 0) --pending_overlay_connects_;
      network().schedule_node(id(), config_.reconnect_delay,
                              [this] { ensure_overlay_links(); });
      break;
    case ConnKind::kTransferOut:
      fail_download(st.download_id, "connect failed");
      break;
    default:
      break;
  }
}

void Servent::on_connection_closed(sim::ConnId conn) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState st = it->second;
  conns_.erase(it);
  if (st.kind == ConnKind::kOverlayOut ||
      (st.kind == ConnKind::kOverlayIn && st.hs == HsState::kEstablished)) {
    if (st.hs == HsState::kEstablished) GnutellaMetrics::get().links_closed.add(1);
    network().schedule_node(id(), config_.reconnect_delay,
                            [this] { ensure_overlay_links(); });
  }
  if (st.kind == ConnKind::kTransferOut && st.download_id != 0) {
    auto pending = pending_downloads_.find(st.download_id);
    if (pending != pending_downloads_.end()) {
      fail_download(st.download_id, "connection closed mid-transfer");
    }
  }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

void Servent::send_handshake_connect(sim::ConnId conn) {
  util::Endpoint self = self_endpoint();
  std::string hs = "GNUTELLA CONNECT/0.6\r\n";
  hs += std::string("X-Ultrapeer: ") + (config_.ultrapeer ? "True" : "False") + "\r\n";
  hs += "Listen-IP: " + self.ip.str() + "\r\n";
  hs += "Listen-Port: " + std::to_string(self.port) + "\r\n";
  hs += "User-Agent: P2PMAL/1.0\r\n\r\n";
  network().send(conn, id(), text_bytes(hs));
  conns_[conn].hs = HsState::kSentConnect;
}

void Servent::handle_handshake(sim::ConnId conn, ConnState& state,
                               util::ByteView wire) {
  std::string_view text = as_view(wire);
  if (text.starts_with("GNUTELLA CONNECT/0.6")) {
    // We are the acceptor.
    state.kind = ConnKind::kOverlayIn;
    state.peer_ultrapeer = header_flag(text, "X-Ultrapeer");
    if (auto ep = listen_endpoint_of(text)) {
      state.peer_listen = *ep;
      state.has_peer_listen = true;
    }
    bool refuse = false;
    if (!config_.ultrapeer) {
      refuse = true;  // leaves do not accept overlay links
    } else if (!state.peer_ultrapeer && leaf_count() >= config_.leaf_slots) {
      refuse = true;
    } else if (state.peer_ultrapeer) {
      std::size_t up_links = 0;
      for (const auto& [cid, st] : conns_) {
        if ((st.kind == ConnKind::kOverlayIn || st.kind == ConnKind::kOverlayOut) &&
            st.hs == HsState::kEstablished && st.peer_ultrapeer) {
          ++up_links;
        }
      }
      refuse = up_links >= config_.up_degree * 2;
    }
    if (refuse) {
      network().send(conn, id(),
                     text_bytes("GNUTELLA/0.6 503 Service Unavailable\r\n\r\n"));
      network().close(conn, id());
      conns_.erase(conn);
      return;
    }
    util::Endpoint self = self_endpoint();
    std::string ok = "GNUTELLA/0.6 200 OK\r\n";
    ok += std::string("X-Ultrapeer: ") + (config_.ultrapeer ? "True" : "False") +
          "\r\n";
    ok += "Listen-IP: " + self.ip.str() + "\r\n";
    ok += "Listen-Port: " + std::to_string(self.port) + "\r\n\r\n";
    network().send(conn, id(), text_bytes(ok));
    state.hs = HsState::kSentOk;
    return;
  }
  if (text.starts_with("GNUTELLA/0.6 200")) {
    if (state.hs == HsState::kSentConnect) {
      // Initiator: got acceptor's OK, send the final OK.
      state.peer_ultrapeer = header_flag(text, "X-Ultrapeer");
      if (auto ep = listen_endpoint_of(text)) {
        state.peer_listen = *ep;
        state.has_peer_listen = true;
      }
      network().send(conn, id(), text_bytes("GNUTELLA/0.6 200 OK\r\n\r\n"));
      established(conn, state);
      return;
    }
    if (state.hs == HsState::kSentOk) {
      // Acceptor: final OK received.
      established(conn, state);
      return;
    }
  }
  // Refusal or garbage: drop the link.
  if (state.kind == ConnKind::kOverlayOut) {
    network().schedule_node(id(), config_.reconnect_delay,
                            [this] { ensure_overlay_links(); });
  }
  network().close(conn, id());
  conns_.erase(conn);
}

void Servent::established(sim::ConnId conn, ConnState& state) {
  state.hs = HsState::kEstablished;
  GnutellaMetrics::get().links_established.add(1);
  P2P_TRACE(obs::Component::kGnutella, "link_established", network().now(),
            obs::tf("node", id()), obs::tf("peer", state.peer),
            obs::tf("peer_ultrapeer", state.peer_ultrapeer));
  // Leaves summarize their shares to ultrapeers via QRP.
  if (!config_.ultrapeer && state.peer_ultrapeer) send_qrt(conn);
  // Harvest the neighbour's pong cache for host discovery.
  send_msg(conn, make_ping(Guid::random(rng_), 1));
}

void Servent::refresh_qrt() {
  if (config_.ultrapeer) return;
  for (auto& [cid, st] : conns_) {
    if (st.kind == ConnKind::kOverlayOut && st.hs == HsState::kEstablished &&
        st.peer_ultrapeer) {
      send_qrt(cid);
    }
  }
}

void Servent::send_qrt(sim::ConnId conn) {
  QueryRouteTable qrt(config_.qrt_bits);
  answerer_->populate_qrt(qrt);
  Guid g = Guid::random(rng_);
  send_msg(conn, make_qrp_reset(g, config_.qrt_bits));
  send_msg(conn, make_qrp_patch(Guid::random(rng_), qrt.to_patch_bytes()));
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void Servent::on_message(sim::ConnId conn, const util::Payload& payload) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ConnState& state = it->second;

  switch (state.kind) {
    case ConnKind::kUnknown:
      if (looks_like_handshake(payload)) {
        handle_handshake(conn, state, payload);
      } else if (looks_like_http_request(payload)) {
        handle_http_request(conn, payload);
      } else if (looks_like_giv(payload)) {
        handle_giv(conn, state, payload);
      } else {
        ++stats_.dropped_malformed;
        GnutellaMetrics::get().dropped_malformed.add(1);
        network().close(conn, id());
        conns_.erase(conn);
      }
      return;
    case ConnKind::kOverlayOut:
    case ConnKind::kOverlayIn:
      if (state.hs != HsState::kEstablished) {
        handle_handshake(conn, state, payload);
      } else {
        handle_descriptor(conn, state, payload);
      }
      return;
    case ConnKind::kTransferOut:
      if (looks_like_giv(payload)) {
        handle_giv(conn, state, payload);
      } else {
        handle_http_response(conn, state, payload);
      }
      return;
    case ConnKind::kTransferIn:
      if (looks_like_http_request(payload)) {
        handle_http_request(conn, payload);
      }
      return;
    case ConnKind::kPushOut:
      // Not expected before open-callback converts it; ignore.
      return;
  }
}

void Servent::handle_descriptor(sim::ConnId conn, ConnState& state,
                                util::ByteView wire) {
  auto msg = parse(wire);
  if (!msg) {
    ++stats_.dropped_malformed;
    GnutellaMetrics::get().dropped_malformed.add(1);
    return;
  }
  GnutellaMetrics::get().recv_counter(msg->type()).add(1);
  switch (msg->type()) {
    case MsgType::kPing:
      handle_ping(conn, *msg);
      break;
    case MsgType::kPong:
      handle_pong(*msg);
      break;
    case MsgType::kBye: {
      // Peer is leaving: tear the link down immediately and refill slots.
      network().close(conn, id());
      bool was_overlay = state.kind == ConnKind::kOverlayOut ||
                         (state.kind == ConnKind::kOverlayIn &&
                          state.hs == HsState::kEstablished);
      conns_.erase(conn);
      if (was_overlay) {
        network().schedule_node(id(), config_.reconnect_delay,
                                [this] { ensure_overlay_links(); });
      }
      return;  // `state` is dangling after the erase
    }
    case MsgType::kQuery:
      handle_query(conn, state, *msg);
      break;
    case MsgType::kQueryHit:
      handle_query_hit(conn, *msg);
      break;
    case MsgType::kPush:
      handle_push(conn, *msg);
      break;
    case MsgType::kQrp:
      handle_qrp(state, *msg);
      break;
  }
}

void Servent::note_seen(const Guid& guid) {
  seen_.insert(guid);
  seen_order_.push_back(guid);
  if (seen_.size() > kSeenCacheMax) {
    // Evict the oldest half; stale route entries go with them.
    std::size_t evict = seen_order_.size() / 2;
    for (std::size_t i = 0; i < evict; ++i) {
      seen_.erase(seen_order_[i]);
      query_routes_.erase(seen_order_[i]);
    }
    seen_order_.erase(seen_order_.begin(),
                      seen_order_.begin() + static_cast<std::ptrdiff_t>(evict));
  }
}

bool Servent::already_seen(const Guid& guid) const { return seen_.contains(guid); }

void Servent::handle_ping(sim::ConnId conn, const Message& msg) {
  if (already_seen(msg.header.guid)) {
    ++stats_.dropped_duplicate;
    GnutellaMetrics::get().dropped_duplicate.add(1);
    return;
  }
  note_seen(msg.header.guid);
  Pong pong;
  pong.addr = self_endpoint();
  pong.file_count = answerer_->shared_file_count();
  pong.kb_shared = answerer_->shared_kb();
  send_msg(conn, make_pong(msg.header.guid,
                           static_cast<std::uint8_t>(msg.header.hops + 1), pong));
  // Pong caching: advertise up to pong_fanout ultrapeer neighbours whose
  // listen endpoints we learned during their handshakes.
  std::size_t advertised = 0;
  for (const auto& [cid, st] : conns_) {
    if (advertised >= config_.pong_fanout) break;
    if (cid == conn) continue;
    if ((st.kind != ConnKind::kOverlayIn && st.kind != ConnKind::kOverlayOut) ||
        st.hs != HsState::kEstablished || !st.peer_ultrapeer || !st.has_peer_listen) {
      continue;
    }
    Pong neighbour;
    neighbour.addr = st.peer_listen;
    send_msg(conn, make_pong(msg.header.guid,
                             static_cast<std::uint8_t>(msg.header.hops + 2), neighbour));
    ++advertised;
  }
}

void Servent::handle_pong(const Message& msg) {
  const auto& pong = std::get<Pong>(msg.payload);
  if (pong.addr == self_endpoint()) return;
  if (!pong.addr.ip.is_publicly_routable() || pong.addr.port == 0) return;
  if (std::find(learned_hosts_.begin(), learned_hosts_.end(), pong.addr) !=
      learned_hosts_.end()) {
    return;
  }
  if (learned_hosts_.size() >= config_.learned_host_max) {
    learned_hosts_.erase(learned_hosts_.begin());
  }
  learned_hosts_.push_back(pong.addr);
}

void Servent::handle_query(sim::ConnId conn, ConnState& state, const Message& msg) {
  OBS_SPAN("gnutella.handle_query");
  (void)state;
  auto& m = GnutellaMetrics::get();
  if (already_seen(msg.header.guid)) {
    ++stats_.dropped_duplicate;
    m.dropped_duplicate.add(1);
    return;
  }
  note_seen(msg.header.guid);
  ++stats_.queries_received;
  m.queries_received.add(1);
  query_routes_[msg.header.guid] = conn;

  const auto& query = std::get<Query>(msg.payload);
  if (query_callback_) query_callback_(query, msg.header.hops);

  answer_query(conn, msg);

  if (!config_.ultrapeer) return;  // leaves are the last hop

  Header fwd = msg.header;
  fwd.ttl = static_cast<std::uint8_t>(msg.header.ttl > 0 ? msg.header.ttl - 1 : 0);
  fwd.hops = static_cast<std::uint8_t>(msg.header.hops + 1);
  bool ttl_ok = msg.header.ttl > 1 && fwd.hops < config_.max_ttl;
  if (!ttl_ok) {
    ++stats_.dropped_ttl;
    m.dropped_ttl.add(1);
  }

  // Serialize each forwarded form once, lazily; every neighbor that takes
  // it shares the same buffer (a Payload refcount bump per hop, no copies).
  // The query's QRP hashes are likewise computed once and tested against
  // every leaf table (recomputed only if a leaf advertised a different
  // table size).
  util::Payload fwd_wire;
  util::Payload leaf_wire;
  QueryHashes qhash;
  for (auto& [cid, st] : conns_) {
    if (cid == conn) continue;
    if ((st.kind != ConnKind::kOverlayIn && st.kind != ConnKind::kOverlayOut) ||
        st.hs != HsState::kEstablished) {
      continue;
    }
    if (st.peer_ultrapeer) {
      if (ttl_ok) {
        if (fwd_wire.empty()) fwd_wire = serialize(fwd, msg.payload);
        network().send(cid, id(), fwd_wire);
        ++stats_.queries_forwarded_up;
        m.queries_routed.add(1);
      }
    } else {
      // Last hop to a leaf: QRP gate (always forwarded when QRP disabled —
      // the A2 ablation measures exactly this difference).
      if (config_.use_qrp && st.has_qrt) {
        if (qhash.bits != st.qrt->table_bits()) {
          qhash = hash_query(query.criteria, st.qrt->table_bits());
        }
        if (!st.qrt->matches_hashed(qhash)) {
          ++stats_.qrp_suppressed;
          m.qrp_suppressed.add(1);
          continue;
        }
      }
      if (leaf_wire.empty()) {
        Header leaf_fwd = fwd;
        leaf_fwd.ttl = std::max<std::uint8_t>(leaf_fwd.ttl, 1);
        leaf_wire = serialize(leaf_fwd, msg.payload);
      }
      network().send(cid, id(), leaf_wire);
      ++stats_.queries_forwarded_leaf;
      m.queries_routed.add(1);
    }
  }
}

void Servent::answer_query(sim::ConnId conn, const Message& msg) {
  const auto& query = std::get<Query>(msg.payload);
  auto results = answerer_->answer(query.criteria);
  if (results.empty()) return;
  if (results.size() > 255) results.resize(255);

  QueryHit hit;
  hit.addr = self_endpoint();
  hit.speed = static_cast<std::uint32_t>(network().profile(id()).uplink_bps * 8 / 1000);
  hit.results = std::move(results);
  hit.needs_push = self_firewalled();
  hit.servent_guid = servent_guid_;
  // QueryHits reuse the query's GUID and travel back along its path.
  auto ttl = static_cast<std::uint8_t>(msg.header.hops + 2);
  send_msg(conn, make_query_hit(msg.header.guid, ttl, std::move(hit)));
  ++stats_.hits_sent;
  GnutellaMetrics::get().hits_sent.add(1);
}

void Servent::handle_query_hit(sim::ConnId conn, const Message& msg) {
  const auto& hit = std::get<QueryHit>(msg.payload);
  // Remember how to reach the responder for later PUSH routing.
  push_routes_[hit.servent_guid] = conn;
  if (push_routes_.size() > kSeenCacheMax) push_routes_.clear();

  auto& m = GnutellaMetrics::get();
  if (our_queries_.contains(msg.header.guid)) {
    ++stats_.hits_received;
    m.hits_received.add(1);
    m.hit_hops.record(static_cast<std::int64_t>(msg.header.hops));
    P2P_TRACE(obs::Component::kGnutella, "hit_received", network().now(),
              obs::tf("node", id()), obs::tf("hops", int(msg.header.hops)),
              obs::tf("results", hit.results.size()));
    if (auto dq = dynamic_queries_.find(msg.header.guid); dq != dynamic_queries_.end()) {
      dq->second.results_seen += hit.results.size();
    }
    if (hit_callback_) {
      hit_callback_(HitEvent{msg.header.guid, hit, msg.header.hops, network().now()});
    }
    return;
  }
  auto route = query_routes_.find(msg.header.guid);
  if (route == query_routes_.end()) return;
  if (msg.header.ttl <= 1) {
    ++stats_.dropped_ttl;
    m.dropped_ttl.add(1);
    return;
  }
  send_forward(route->second, msg);
  ++stats_.hits_routed;
  m.hits_routed.add(1);
}

void Servent::handle_qrp(ConnState& state, const Message& msg) {
  const auto& qrp = std::get<Qrp>(msg.payload);
  if (std::holds_alternative<QrpReset>(qrp.op)) {
    const auto& reset = std::get<QrpReset>(qrp.op);
    if (reset.table_bits >= 4 && reset.table_bits <= 24) {
      state.qrt.emplace(reset.table_bits);
      state.has_qrt = false;  // armed by the PATCH that follows
    }
  } else {
    const auto& patch = std::get<QrpPatch>(qrp.op);
    if (!state.qrt) state.qrt.emplace();  // a PATCH without a RESET
    if (state.qrt->from_patch_bytes(patch.bits)) state.has_qrt = true;
  }
}

// ---------------------------------------------------------------------------
// Query origination and downloads
// ---------------------------------------------------------------------------

Guid Servent::send_query(const std::string& criteria) {
  Guid guid = Guid::random(rng_);
  our_queries_.insert(guid);
  note_seen(guid);
  // One serialization for the whole broadcast; every neighbor shares the
  // buffer.
  util::Payload wire{serialize(make_query(guid, config_.query_ttl, criteria))};
  for (auto& [cid, st] : conns_) {
    if ((st.kind == ConnKind::kOverlayOut || st.kind == ConnKind::kOverlayIn) &&
        st.hs == HsState::kEstablished) {
      network().send(cid, id(), wire);
    }
  }
  ++stats_.queries_originated;
  P2P_TRACE(obs::Component::kGnutella, "query_originated", network().now(),
            obs::tf("node", id()), obs::tf("criteria", criteria),
            obs::tf("ttl", int(config_.query_ttl)));
  return guid;
}

Guid Servent::send_query_dynamic(const std::string& criteria,
                                 std::size_t target_results,
                                 sim::SimDuration probe_interval) {
  Guid guid = Guid::random(rng_);
  our_queries_.insert(guid);
  note_seen(guid);
  ++stats_.queries_originated;

  DynamicQueryState state;
  state.criteria = criteria;
  state.target_results = target_results;
  state.probe_interval = probe_interval;
  for (const auto& [cid, st] : conns_) {
    if ((st.kind == ConnKind::kOverlayOut || st.kind == ConnKind::kOverlayIn) &&
        st.hs == HsState::kEstablished) {
      state.remaining_conns.push_back(cid);
    }
  }
  dynamic_queries_[guid] = std::move(state);
  dynamic_query_probe(guid);
  return guid;
}

void Servent::dynamic_query_probe(Guid guid) {
  auto it = dynamic_queries_.find(guid);
  if (it == dynamic_queries_.end()) return;
  DynamicQueryState& dq = it->second;
  if (dq.results_seen >= dq.target_results || dq.remaining_conns.empty()) {
    dynamic_queries_.erase(it);
    return;
  }
  // Probe the next ultrapeer; re-used GUID means already-visited overlay
  // territory drops the copy as a duplicate.
  sim::ConnId next = dq.remaining_conns.back();
  dq.remaining_conns.pop_back();
  std::uint8_t ttl = std::min<std::uint8_t>(dq.next_ttl, config_.query_ttl);
  if (dq.next_ttl < config_.query_ttl) ++dq.next_ttl;
  if (conns_.contains(next)) {
    send_msg(next, make_query(guid, ttl, dq.criteria));
  }
  network().schedule_node(id(), dq.probe_interval,
                          [this, guid] { dynamic_query_probe(guid); });
}

std::uint64_t Servent::download(const QueryHit& source_hit,
                                const QueryHitResult& result) {
  std::uint64_t id_ = next_download_id_++;
  PendingDownload pending;
  pending.id = id_;
  pending.result = result;
  pending.source = source_hit.addr;
  pending.servent_guid = source_hit.servent_guid;

  bool direct_possible = !source_hit.needs_push &&
                         source_hit.addr.ip.is_publicly_routable();
  std::optional<sim::NodeId> target;
  if (direct_possible) target = network().lookup(source_hit.addr);

  if (target) {
    sim::ConnId cid = network().connect(id(), *target);
    ConnState st;
    st.kind = ConnKind::kTransferOut;
    st.peer = *target;
    st.download_id = id_;
    conns_[cid] = st;
    pending_downloads_[id_] = std::move(pending);
  } else {
    pending.via_push = true;
    pending_downloads_[id_] = std::move(pending);
    start_push(pending_downloads_[id_]);
  }

  network().schedule_node(id(), config_.download_timeout, [this, id_] {
    if (pending_downloads_.contains(id_)) fail_download(id_, "timeout");
  });
  return id_;
}

void Servent::start_push(PendingDownload& pending) {
  Push push;
  push.servent_guid = pending.servent_guid;
  push.file_index = pending.result.index;
  push.requester = self_endpoint();
  Guid guid = Guid::random(rng_);
  Message msg = make_push(guid, config_.query_ttl, push);

  // Prefer the connection that delivered the hit; fall back to flooding our
  // overlay links.
  auto route = push_routes_.find(pending.servent_guid);
  if (route != push_routes_.end() && conns_.contains(route->second)) {
    send_msg(route->second, msg);
    ++stats_.pushes_sent;
    return;
  }
  for (auto& [cid, st] : conns_) {
    if ((st.kind == ConnKind::kOverlayOut || st.kind == ConnKind::kOverlayIn) &&
        st.hs == HsState::kEstablished) {
      send_msg(cid, msg);
      ++stats_.pushes_sent;
    }
  }
}

void Servent::handle_push(sim::ConnId conn, const Message& msg) {
  (void)conn;
  const auto& push = std::get<Push>(msg.payload);
  if (push.servent_guid == servent_guid_) {
    // We are the (possibly firewalled) server: connect back and GIV.
    auto requester = network().lookup(push.requester);
    if (!requester) return;  // requester itself unreachable: give up
    sim::ConnId cid = network().connect(id(), *requester);
    ConnState st;
    st.kind = ConnKind::kPushOut;
    st.peer = *requester;
    // Encode the pushed file index (+1 so 0 stays distinguishable).
    st.download_id = static_cast<std::uint64_t>(push.file_index) + 1;
    conns_[cid] = st;
    return;
  }
  if (already_seen(msg.header.guid)) {
    ++stats_.dropped_duplicate;
    return;
  }
  note_seen(msg.header.guid);
  auto route = push_routes_.find(push.servent_guid);
  if (route == push_routes_.end() || msg.header.ttl <= 1) return;
  send_forward(route->second, msg);
  ++stats_.pushes_routed;
  GnutellaMetrics::get().pushes_routed.add(1);
}

void Servent::handle_giv(sim::ConnId conn, ConnState& state, util::ByteView wire) {
  auto giv = GivLine::parse(wire);
  if (!giv) {
    network().close(conn, id());
    conns_.erase(conn);
    return;
  }
  // Find the pending push download this connect-back satisfies.
  for (auto& [did, pending] : pending_downloads_) {
    if (pending.via_push && pending.servent_guid == giv->servent_guid &&
        pending.result.index == giv->index && !pending.transfer_started) {
      pending.transfer_started = true;
      state.kind = ConnKind::kTransferOut;
      state.download_id = did;
      HttpRequest req = make_get_request(pending.result.index, pending.result.filename);
      network().send(conn, id(), req.serialize());
      return;
    }
  }
  // No matching request: close.
  network().close(conn, id());
  conns_.erase(conn);
}

void Servent::handle_http_request(sim::ConnId conn, util::ByteView wire) {
  auto req = HttpRequest::parse(wire);
  HttpResponse resp;

  // Upload-slot admission: a host saturating its slots answers 503 Busy.
  if (config_.upload_slots > 0) {
    sim::SimTime cutoff_base = network().now();
    recent_upload_starts_.erase(
        std::remove_if(recent_upload_starts_.begin(), recent_upload_starts_.end(),
                       [&](sim::SimTime t) {
                         return cutoff_base - t > config_.upload_window;
                       }),
        recent_upload_starts_.end());
    if (recent_upload_starts_.size() >= config_.upload_slots) {
      ++stats_.uploads_refused_busy;
      resp.status = 503;
      resp.reason = "Busy";
      network().send(conn, id(), resp.serialize());
      return;
    }
  }

  std::shared_ptr<const files::FileContent> file;
  if (req) {
    if (auto get = parse_get_path(req->path)) file = answerer_->resolve(get->first);
  }
  if (file) {
    recent_upload_starts_.push_back(network().now());
    resp.status = 200;
    resp.reason = "OK";
    resp.headers = {{"Server", "P2PMAL/1.0"},
                    {"Content-Type", "application/binary"}};
    ++stats_.uploads_served;
    GnutellaMetrics::get().uploads_served.add(1);
    network().send(conn, id(), resp.serialize(file->bytes()));
  } else {
    resp.status = 404;
    resp.reason = "Not Found";
    network().send(conn, id(), resp.serialize());
  }
  // The requester closes after reading the body (closing here would race
  // the in-flight response in a real stack too).
}

void Servent::handle_http_response(sim::ConnId conn, ConnState& state,
                                   util::ByteView wire) {
  std::uint64_t did = state.download_id;
  auto pending_it = pending_downloads_.find(did);
  network().close(conn, id());
  conns_.erase(conn);
  if (pending_it == pending_downloads_.end()) return;
  PendingDownload pending = std::move(pending_it->second);
  pending_downloads_.erase(pending_it);

  auto resp = HttpResponse::parse(wire);
  DownloadOutcome outcome;
  outcome.request_id = did;
  outcome.filename = pending.result.filename;
  outcome.source = pending.source;
  outcome.servent_guid = pending.servent_guid;
  if (resp && resp->status == 200) {
    outcome.success = true;
    outcome.content = std::move(resp->body);
    ++stats_.downloads_ok;
  } else {
    outcome.success = false;
    outcome.error = resp ? ("http " + std::to_string(resp->status)) : "malformed response";
    ++stats_.downloads_failed;
  }
  if (download_callback_) download_callback_(outcome);
}

void Servent::fail_download(std::uint64_t id_, const std::string& error) {
  auto it = pending_downloads_.find(id_);
  if (it == pending_downloads_.end()) return;
  DownloadOutcome outcome;
  outcome.request_id = id_;
  outcome.success = false;
  outcome.filename = it->second.result.filename;
  outcome.source = it->second.source;
  outcome.servent_guid = it->second.servent_guid;
  outcome.error = error;
  pending_downloads_.erase(it);
  ++stats_.downloads_failed;
  if (download_callback_) download_callback_(outcome);
}

void Servent::shutdown(std::uint16_t code, const std::string& reason) {
  for (auto& [cid, st] : conns_) {
    if ((st.kind == ConnKind::kOverlayOut || st.kind == ConnKind::kOverlayIn) &&
        st.hs == HsState::kEstablished) {
      send_msg(cid, make_bye(Guid::random(rng_), code, reason));
    }
    network().close(cid, id());
  }
  conns_.clear();
}

void Servent::send_msg(sim::ConnId conn, const Message& msg) {
  network().send(conn, id(), serialize(msg));
}

void Servent::send_forward(sim::ConnId conn, const Message& msg) {
  Header fwd = msg.header;
  fwd.ttl = static_cast<std::uint8_t>(msg.header.ttl - 1);
  fwd.hops = static_cast<std::uint8_t>(msg.header.hops + 1);
  network().send(conn, id(), serialize(fwd, msg.payload));
}

}  // namespace p2p::gnutella
