#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"
#include "util/log.h"

namespace p2p::sim {

Network::Metrics::Metrics()
    : connects_attempted(obs::MetricsRegistry::global().counter("net.connects_attempted")),
      connects_failed(obs::MetricsRegistry::global().counter("net.connects_failed")),
      connections_opened(obs::MetricsRegistry::global().counter("net.connections_opened")),
      connections_closed(obs::MetricsRegistry::global().counter("net.connections_closed")),
      messages_sent(obs::MetricsRegistry::global().counter("net.messages_sent")),
      messages_delivered(obs::MetricsRegistry::global().counter("net.messages_delivered")),
      messages_dropped(obs::MetricsRegistry::global().counter("net.messages_dropped")),
      bytes_delivered(obs::MetricsRegistry::global().counter("net.bytes_delivered")),
      nodes_alive(obs::MetricsRegistry::global().gauge("net.nodes_alive")),
      connections_open(obs::MetricsRegistry::global().gauge("net.connections_open")),
      message_bytes(obs::MetricsRegistry::global().histogram(
          "net.message_bytes", obs::HistogramSpec::exponential(obs::Unit::kBytes))) {}

namespace {

/// Stateless mixer for intrinsic draws: a splitmix64 chain over up to three
/// words. Every random decision the network makes (latency, fault key) is a pure
/// function of (seed, origin slot, origin sequence) through this, so it
/// never depends on thread or shard interleaving.
std::uint64_t mix_key(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t state = a + 0x9e3779b97f4a7c15ull;
  state ^= util::splitmix64(state) + b;
  state ^= util::splitmix64(state) + c;
  return util::splitmix64(state);
}

}  // namespace

Network::Network(std::uint64_t seed, ShardingConfig sharding)
    : engine_(sharding), seed_(seed), lookahead_(sharding.lookahead) {
  // Stamp log lines with this network's simulated clock (see util/log.h).
  util::Logger::instance().set_sim_clock([this] { return now(); });
}

Network::~Network() { util::Logger::instance().clear_sim_clock(); }

NodeId Network::add_node(std::unique_ptr<Node> node, HostProfile profile) {
  if (!node) throw std::invalid_argument("Network::add_node: null node");
  NodeId id = register_peer(profile);
  attach_node(id, std::move(node));
  return id;
}

NodeId Network::register_peer(HostProfile profile) {
  NodeId id = static_cast<NodeId>(slots_.size());
  Slot& slot = slots_.emplace_back();
  slot.profile = profile;
  slot.entity = engine_.add_entity(id);  // throws if a run is in progress
  if (!profile.behind_nat) {
    listeners_[util::Endpoint{profile.ip, profile.port}] = id;
  }
  return id;
}

void Network::attach_node(NodeId id, std::unique_ptr<Node> node) {
  if (!node) throw std::invalid_argument("Network::attach_node: null node");
  if (id >= slots_.size()) throw std::out_of_range("Network::attach_node");
  Slot& slot = slots_[id];
  if (slot.node) throw std::logic_error("Network::attach_node: slot occupied");
  node->id_ = id;
  node->network_ = this;
  slot.node = std::move(node);
  alive_count_.fetch_add(1, std::memory_order_relaxed);
  // start() runs from the slot's own event context (self-post before a run
  // becomes a bootstrap insert) so constructors can't observe a half-built
  // network; the generation guard skips it if the instance churns away
  // before the event fires.
  std::uint64_t gen = slot.generation;
  engine_.post(slot.entity, now(), [this, id, gen] {
    Slot& s = slots_[id];
    if (s.node && s.generation == gen) s.node->start();
  });
  P2P_TRACE(obs::Component::kNet, "node_join", now(), obs::tf("node", id),
            obs::tf("ip", slot.profile.ip.str()),
            obs::tf("nat", slot.profile.behind_nat));
}

ShardedEngine::EntityId Network::entity_of(NodeId id) const {
  if (id >= slots_.size()) throw std::out_of_range("Network::entity_of");
  return slots_[id].entity;
}

void Network::remove_node(NodeId id) {
  if (id >= slots_.size() || !slots_[id].node) return;
  settle(id);
  Slot& slot = slots_[id];
  // Close every half this endpoint owns; peers learn via notify posts. The
  // listener endpoint stays registered (the partition must not change
  // mid-run) — connects to a detached slot are refused at the target.
  for (Half& h : slot.halves.span()) {
    if (h.closed) continue;
    bool was_open = close_half(id, h);
    if (was_open) {
      P2P_TRACE(obs::Component::kNet, "conn_close", now(), obs::tf("conn", h.cid),
                obs::tf("closer", id));
    }
    notify_close(h.cid, h.peer, SimDuration::millis(h.latency_ms));
  }
  slot.halves.clear();
  slot.releases.clear();
  slot.node.reset();
  slot.generation++;
  alive_count_.fetch_sub(1, std::memory_order_relaxed);
  P2P_TRACE(obs::Component::kNet, "node_leave", now(), obs::tf("node", id));
}

bool Network::alive(NodeId id) const {
  return id < slots_.size() && slots_[id].node != nullptr;
}

Node* Network::node(NodeId id) {
  return id < slots_.size() ? slots_[id].node.get() : nullptr;
}

const HostProfile& Network::profile(NodeId id) const {
  if (id >= slots_.size()) throw std::out_of_range("Network::profile");
  return slots_[id].profile;
}

std::optional<NodeId> Network::lookup(const util::Endpoint& ep) const {
  auto it = listeners_.find(ep);
  if (it == listeners_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// Connections. State is split into per-endpoint halves owned by each slot's
// entity; every cross-host effect travels as an engine post at least one
// connection latency (>= the lookahead floor) in the future. All of the
// functions below run on the owning slot's entity context — the engine
// serializes a slot's events, so no half is ever touched by two threads.
// Shared totals (open_halves_, messages_delivered_, metrics) are relaxed
// atomics: sums commute, so they are deterministic at barriers.
// ---------------------------------------------------------------------------

SimDuration Network::draw_latency_keyed(NodeId initiator,
                                        std::uint32_t seq) const {
  auto lo = std::max(latency_model.min.count_ms(), lookahead_.count_ms());
  auto hi = std::max(latency_model.max.count_ms(), lo);
  std::uint64_t x = mix_key(seed_, initiator, seq);
  return SimDuration::millis(
      lo + static_cast<std::int64_t>(x % static_cast<std::uint64_t>(hi - lo + 1)));
}

std::uint32_t Network::HalfVec::home(ConnId cid) const {
  return static_cast<std::uint32_t>((cid * 0x9e3779b97f4a7c15ull) >> 32) & mask();
}

std::uint32_t Network::HalfVec::probe(ConnId cid) const {
  std::uint32_t i = home(cid);
  while (index[i] != 0 && data[index[i] - 1].cid != cid) i = (i + 1) & mask();
  return i;
}

const Network::Half* Network::HalfVec::find(ConnId cid) const {
  if (size == 0) return nullptr;
  std::uint32_t p = index[probe(cid)];
  return p != 0 ? &data[p - 1] : nullptr;
}

void Network::HalfVec::index_position(std::uint32_t pos) {
  // First empty slot of the run: a duplicate ConnId (a self-connection
  // holds both halves) stays behind the first, as a linear scan finds it.
  std::uint32_t i = home(data[pos].cid);
  while (index[i] != 0) i = (i + 1) & mask();
  index[i] = pos + 1;
}

void Network::HalfVec::unindex(std::uint32_t hole) {
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless their home lies cyclically in (hole, j].
  std::uint32_t i = hole;
  for (std::uint32_t j = (hole + 1) & mask(); index[j] != 0; j = (j + 1) & mask()) {
    std::uint32_t k = home(data[index[j] - 1].cid);
    bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
    if (!stays) {
      index[i] = index[j];
      i = j;
    }
  }
  index[i] = 0;
}

void Network::HalfVec::push(Arena& arena, const Half& half) {
  if (size == cap) {
    std::uint32_t ncap = cap != 0 ? cap * 2 : 8;
    Half* ndata = arena.make_array<Half>(ncap).data();
    std::copy(data, data + size, ndata);
    data = ndata;
    cap = ncap;
    index = arena.make_array<std::uint32_t>(std::size_t{ncap} * 2).data();
    std::fill(index, index + std::size_t{ncap} * 2, 0u);
    for (std::uint32_t p = 0; p < size; ++p) index_position(p);
  }
  data[size] = half;
  index_position(size++);
}

void Network::HalfVec::erase(ConnId cid) {
  if (size == 0) return;
  std::uint32_t hole = probe(cid);
  if (index[hole] == 0) return;
  std::uint32_t pos = index[hole] - 1;
  unindex(hole);
  std::uint32_t last = size - 1;
  if (pos != last) {
    // Swap-with-last, and repoint the moved half's index entry.
    data[pos] = data[last];
    std::uint32_t i = home(data[pos].cid);
    while (index[i] != last + 1) i = (i + 1) & mask();
    index[i] = pos + 1;
  }
  --size;
}

void Network::HalfVec::clear() {
  size = 0;
  if (index != nullptr) std::fill(index, index + std::size_t{cap} * 2, 0u);
}

namespace {

/// Min-heap order on Release keys for the std heap algorithms.
template <typename R>
bool later(const R& a, const R& b) {
  return ShardQueue::earlier(b.key, a.key);
}

}  // namespace

void Network::release_at(NodeId id, ConnId cid, SimTime at) {
  Slot& s = slots_[id];
  s.releases.push_back(Release{engine_.reserve(s.entity, at), cid});
  std::push_heap(s.releases.begin(), s.releases.end(), later<Release>);
}

void Network::settle(NodeId id) {
  Slot& s = slots_[id];
  if (s.releases.empty()) return;
  ShardedEngine::Key now = engine_.current_key();
  while (!s.releases.empty() && ShardQueue::earlier(s.releases.front().key, now)) {
    s.halves.erase(s.releases.front().cid);
    std::pop_heap(s.releases.begin(), s.releases.end(), later<Release>);
    s.releases.pop_back();
  }
}

Network::Half* Network::find_half(NodeId id, ConnId cid) {
  settle(id);
  return const_cast<Half*>(slots_[id].halves.find(cid));
}

const Network::Half* Network::find_half(NodeId id, ConnId cid) const {
  // Read-only (tests / between runs): a half whose release is due counts
  // as reclaimed even though settle() has not erased it yet.
  const Slot& s = slots_[id];
  ShardedEngine::Key now = engine_.current_key();
  for (const Release& r : s.releases) {
    if (r.cid == cid && ShardQueue::earlier(r.key, now)) return nullptr;
  }
  return s.halves.find(cid);
}

void Network::push_half(NodeId id, const Half& half) {
  settle(id);
  Slot& s = slots_[id];
  // The owning shard's arena: single-threaded by construction (this code
  // runs on the slot's entity).
  s.halves.push(engine_.shard_arena(engine_.shard_of(s.entity)), half);
}

void Network::erase_half(NodeId id, ConnId cid) {
  settle(id);
  slots_[id].halves.erase(cid);
}

bool Network::close_half(NodeId id, Half& half) {
  bool was_open = half.open && !half.closed;
  half.closed = true;
  half.open = false;
  if (was_open) {
    open_halves_.fetch_sub(1, std::memory_order_relaxed);
    // Connection-level monotonic counters are owned by the initiating
    // endpoint so each logical connection is counted exactly once.
    if (conn_initiator(half.cid) == id) metrics_.connections_closed.add(1);
  }
  return was_open;
}

bool Network::fail_initiated(NodeId from, ConnId cid, NodeId to) {
  Half* h = find_half(from, cid);
  if (!h || h->closed) return false;
  close_half(from, *h);
  if (Node* n = slots_[from].node.get()) n->on_connection_failed(cid, to);
  erase_half(from, cid);
  return true;
}

ConnId Network::connect(NodeId from, NodeId to) {
  metrics_.connects_attempted.add(1);
  Slot& fs = slots_[from];
  std::uint32_t seq = ++fs.conn_seq;
  ConnId cid = (static_cast<ConnId>(from) + 1) << 32 | seq;
  SimDuration latency = draw_latency_keyed(from, seq);
  std::int64_t lat_ms = latency.count_ms();

  Half half;
  half.cid = cid;
  half.peer = to;
  half.latency_ms = lat_ms;
  push_half(from, half);

  if (to >= slots_.size()) {
    // Unknown target: fail back to the initiator after one latency.
    engine_.post(fs.entity, now() + latency, [this, cid, from, to] {
      if (fail_initiated(from, cid, to)) metrics_.connects_failed.add(1);
    });
    return cid;
  }

  // The request reaches the target one latency out; the target decides and
  // answers — so the initiator learns of failure after a full RTT.
  engine_.post(slots_[to].entity, now() + latency, [this, cid, from, to, lat_ms] {
    Slot& ts = slots_[to];
    Node* target = ts.node.get();
    bool refused =
        !target || ts.profile.behind_nat || !target->accept_connection(from);
    SimDuration lat = SimDuration::millis(lat_ms);
    if (refused) {
      metrics_.connects_failed.add(1);
      engine_.post(slots_[from].entity, now() + lat,
                   [this, cid, from, to] { fail_initiated(from, cid, to); });
      return;
    }
    Half th;
    th.cid = cid;
    th.peer = from;
    th.latency_ms = lat_ms;
    th.tx_free = now();
    th.open = true;
    push_half(to, th);
    open_halves_.fetch_add(1, std::memory_order_relaxed);
    P2P_TRACE(obs::Component::kNet, "conn_open", now(), obs::tf("conn", cid),
              obs::tf("from", from), obs::tf("to", to));
    target->on_connection_open(cid, from, /*initiated=*/false);
    // Confirm to the initiator one RTT after it started.
    engine_.post(slots_[from].entity, now() + lat, [this, cid, from, to] {
      Half* h = find_half(from, cid);
      if (!h || h->closed) return;
      h->open = true;
      h->tx_free = now();
      open_halves_.fetch_add(1, std::memory_order_relaxed);
      metrics_.connections_opened.add(1);
      if (Node* n = slots_[from].node.get()) {
        n->on_connection_open(cid, to, /*initiated=*/true);
      }
    });
  });
  return cid;
}

void Network::send(ConnId conn, NodeId sender, util::Payload payload) {
  Half* h = sender < slots_.size() ? find_half(sender, conn) : nullptr;
  if (!h || !h->open || h->closed) {
    metrics_.messages_dropped.add(1);
    return;
  }
  Slot& ss = slots_[sender];
  NodeId receiver = h->peer;
  metrics_.messages_sent.add(1);
  metrics_.message_bytes.record(static_cast<std::int64_t>(payload.size()));

  // Fault decisions are keyed on (sender slot, per-sender send sequence) —
  // intrinsic to the simulation's causality, never to thread order.
  SendFaults faults;
  if (fault_hook_ != nullptr) {
    faults = fault_hook_->on_send_keyed(payload, mix_key(sender, ++ss.send_seq));
  }

  double bps =
      std::min(ss.profile.uplink_bps, slots_[receiver].profile.downlink_bps);
  auto transfer_ms = static_cast<std::int64_t>(
      1000.0 * static_cast<double>(payload.size()) / std::max(1.0, bps));
  SimTime start = std::max(now(), h->tx_free);
  SimTime done = start + SimDuration::millis(transfer_ms);
  h->tx_free = done;
  SimTime arrival = done + SimDuration::millis(h->latency_ms) + faults.extra_delay;

  if (faults.drop) {
    metrics_.messages_dropped.add(1);
    return;
  }
  ShardedEngine::EntityId dst = slots_[receiver].entity;
  if (faults.duplicate) {
    engine_.post(dst, arrival + SimDuration::millis(1),
                 [this, conn, receiver, payload] { deliver(conn, receiver, payload); });
  }
  engine_.post(dst, arrival, [this, conn, receiver, payload = std::move(payload)] {
    deliver(conn, receiver, payload);
  });
}

void Network::deliver(ConnId conn, NodeId to, const util::Payload& payload) {
  // Graceful-close semantics: the receiver's half outlives the close by a
  // grace period, so bytes sent while open still land (as TCP flushes
  // before FIN); only receiver death (or the reclaim timer) drops them.
  Half* h = find_half(to, conn);
  Node* n = slots_[to].node.get();
  if (!h || !n) {
    metrics_.messages_dropped.add(1);
    return;
  }
  messages_delivered_.fetch_add(1, std::memory_order_relaxed);
  bytes_delivered_.fetch_add(payload.size(), std::memory_order_relaxed);
  metrics_.messages_delivered.add(1);
  metrics_.bytes_delivered.add(payload.size());
  n->on_message(conn, payload);
}

void Network::close(ConnId conn, NodeId closer) {
  Half* h = closer < slots_.size() ? find_half(closer, conn) : nullptr;
  if (!h || h->closed) return;
  NodeId peer = h->peer;
  SimDuration lat = SimDuration::millis(h->latency_ms);
  bool was_open = close_half(closer, *h);
  if (was_open) {
    P2P_TRACE(obs::Component::kNet, "conn_close", now(), obs::tf("conn", conn),
              obs::tf("closer", closer));
  }
  // Always notify the peer — its half can be open even when ours never was
  // (a close racing the accept confirm). The notification travels with the
  // connection latency, so it always arrives after the connect request did.
  notify_close(conn, peer, lat);
  release_at(closer, conn, now() + lat * 2 + SimDuration::seconds(10));
}

void Network::notify_close(ConnId cid, NodeId peer, SimDuration latency) {
  engine_.post(slots_[peer].entity, now() + latency, [this, cid, peer] {
    Half* ph = find_half(peer, cid);
    if (!ph || ph->closed) return;
    bool peer_open = close_half(peer, *ph);
    if (peer_open) {
      if (Node* n = slots_[peer].node.get()) n->on_connection_closed(cid);
    }
    // Reclaim after in-flight messages have had time to land (RST-like).
    release_at(peer, cid, now() + SimDuration::seconds(10));
  });
}

bool Network::connection_open(ConnId conn) const {
  NodeId init = conn_initiator(conn);
  if (init >= slots_.size()) return false;
  const Half* h = find_half(init, conn);
  return h != nullptr && h->open && !h->closed;
}

NodeId Network::peer_of(ConnId conn, NodeId self) const {
  if (self >= slots_.size()) return kInvalidNode;
  const Half* h = find_half(self, conn);
  return h != nullptr ? h->peer : kInvalidNode;
}

std::size_t Network::open_connection_count() const {
  return open_halves_.load(std::memory_order_relaxed) / 2;
}

void Network::refresh_gauges() {
  metrics_.nodes_alive.set(
      static_cast<std::int64_t>(alive_count_.load(std::memory_order_relaxed)));
  metrics_.connections_open.set(static_cast<std::int64_t>(
      open_halves_.load(std::memory_order_relaxed) / 2));
}

}  // namespace p2p::sim
