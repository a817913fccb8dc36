// Simulated connection-oriented network.
//
// This replaces the live Internet underneath the P2P protocol stacks. It
// models the three properties the study's results actually depend on:
//
//  * reachability — hosts behind NAT cannot accept incoming connections
//    (which is why Gnutella needs PUSH and why NATed hosts advertise
//    private addresses in QueryHits);
//  * latency — per-connection propagation delay drawn once at connect time;
//  * bandwidth — transfer time proportional to message size, bounded by the
//    slower of the sender's uplink and receiver's downlink, with
//    per-direction serialization so back-to-back sends queue.
//
// One model, one executor: the network runs on sim::ShardedEngine at any
// shard count (ShardingConfig::shards, default 1), and output is
// byte-identical at every count. Every host slot is its own scheduling
// entity; connection state is split into per-endpoint halves so no two
// entities share mutable connection state; and every cross-host effect
// (connect request/answer, delivery, close notification) travels as an
// engine post stamped at least one propagation latency in the future —
// which satisfies the conservative lookahead floor because connection
// latencies are clamped to >= the lookahead. All callbacks fire from the
// event loop, never re-entrantly from inside send()/connect(). See DESIGN.md
// "Sharded execution" for the semantics this implies (a refusal reaches the
// initiator after a full round trip; a send to a dead peer counts as sent
// and drops at delivery).
//
// Hot-path layout (see DESIGN.md "Simulation-core performance"): payloads
// are shared util::Payload buffers (a broadcast serializes once), the
// listener table is hashed, and each slot's connection halves live in the
// owning shard's arena (sim::Arena), so a shard's connection working set
// stays contiguous and thread-local.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sim/sharded_engine.h"
#include "util/bytes.h"
#include "util/ip.h"
#include "util/payload.h"
#include "util/rng.h"

namespace p2p::sim {

using NodeId = std::uint32_t;
using ConnId = std::uint64_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr ConnId kInvalidConn = static_cast<ConnId>(-1);

/// Static description of a host as seen from the network.
struct HostProfile {
  /// Address the host believes it has and advertises in protocol messages.
  /// For a host behind a misconfigured NAT this is an RFC 1918 address —
  /// the root cause of the paper's "28% of malicious responses come from
  /// private address ranges" observation.
  util::Ipv4 ip;
  std::uint16_t port = 6346;
  /// Cannot accept incoming connections (incoming connect() fails).
  bool behind_nat = false;
  /// Bytes per second. Defaults approximate 2006-era broadband.
  double uplink_bps = 48'000.0;
  double downlink_bps = 150'000.0;
};

class Network;

/// Per-message fault decisions returned by a MessageFaultHook.
struct SendFaults {
  /// Message vanishes (never delivered; the sender still spent the uplink).
  bool drop = false;
  /// Extra queueing delay added to the arrival time (zero = on time).
  SimDuration extra_delay{};
  /// Deliver a second copy shortly after the first.
  bool duplicate = false;
};

/// Fault-injection hook consulted once per send() on a live connection (see
/// src/fault). May corrupt the payload via its copy-on-write mutate() —
/// shared broadcast siblings are unaffected. `key` is a stable function of
/// (sender slot, per-sender send sequence), so the decision must depend
/// only on the key — never on cross-thread call order — and hooks may be
/// called concurrently from shard workers. Null hook == a fault-free
/// network.
class MessageFaultHook {
 public:
  virtual ~MessageFaultHook() = default;
  virtual SendFaults on_send_keyed(util::Payload& payload, std::uint64_t key) = 0;
};

/// Executor partition for a Network: its sim::ShardedEngine's settings
/// (shards, 0 means 1; the lookahead, which also clamps every connection
/// latency from below, so it must not exceed the intended latency floor;
/// the worker thread context). Output is byte-identical at every shard
/// count.
using ShardingConfig = ShardedEngine::Config;

/// Behaviour attached to a simulated host. Protocol servents subclass this.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once after the node is added and assigned an id.
  virtual void start() {}
  /// Incoming connection admission control (e.g. max-connection limits).
  virtual bool accept_connection(NodeId from) {
    (void)from;
    return true;
  }
  /// Connection became open (both for initiated and accepted connections).
  virtual void on_connection_open(ConnId conn, NodeId peer, bool initiated) {
    (void)conn;
    (void)peer;
    (void)initiated;
  }
  /// An initiated connection failed (unreachable, refused, or target gone).
  virtual void on_connection_failed(ConnId conn, NodeId target) {
    (void)conn;
    (void)target;
  }
  /// The payload is a shared immutable buffer; keep a copy (refcount bump)
  /// if the bytes must outlive the callback.
  virtual void on_message(ConnId conn, const util::Payload& payload) = 0;
  virtual void on_connection_closed(ConnId conn) { (void)conn; }

  /// Set by Network::add_node.
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Network& network() const { return *network_; }

 private:
  friend class Network;
  NodeId id_ = kInvalidNode;
  Network* network_ = nullptr;
};

/// The simulated network: owns nodes, connections, and the executor.
class Network {
 public:
  /// Latency bounds for newly established connections.
  struct LatencyModel {
    SimDuration min = SimDuration::millis(20);
    SimDuration max = SimDuration::millis(250);
  };

  explicit Network(std::uint64_t seed, ShardingConfig sharding = {});
  /// Unregisters this network's sim clock from the Logger.
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The executor every node, driver and test schedules on.
  [[nodiscard]] ShardedEngine& engine() { return engine_; }
  /// Always true: every network runs on ShardedEngine. Kept because the
  /// benchmark harness (perfbench/) still calls it.
  [[nodiscard]] bool sharded() const { return true; }
  [[nodiscard]] SimTime now() const { return engine_.now(); }

  // -- Node lifecycle -------------------------------------------------------

  /// register_peer() + attach_node(): only outside a run, because the
  /// engine's entity partition must never change mid-run.
  NodeId add_node(std::unique_ptr<Node> node, HostProfile profile);
  /// Take a node offline (churn). All its connections close (peers learn
  /// one latency later); queued deliveries to it are dropped. The slot and
  /// its listener endpoint stay registered, so the peer can re-attach with
  /// its identity intact; connects to it meanwhile are refused. Call it
  /// from the node's own entity context (or between runs).
  void remove_node(NodeId id);

  /// Before the first run: register a host slot (entity + listener
  /// endpoint) with no live instance. attach_node() brings it online;
  /// remove_node() takes it offline again. This is how churned peers keep a
  /// stable slot across sessions.
  NodeId register_peer(HostProfile profile);
  /// Install a fresh instance into a registered slot (churn join). Must run
  /// on the slot's entity context or before the first run.
  void attach_node(NodeId id, std::unique_ptr<Node> node);
  /// The engine entity owning a slot.
  [[nodiscard]] ShardedEngine::EntityId entity_of(NodeId id) const;

  [[nodiscard]] bool alive(NodeId id) const;
  [[nodiscard]] Node* node(NodeId id);
  [[nodiscard]] const HostProfile& profile(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const {
    return alive_count_.load(std::memory_order_relaxed);
  }

  /// Find the (publicly reachable) slot listening on `ep`, if any — online
  /// or not: liveness is the target's to decide when a connect arrives.
  [[nodiscard]] std::optional<NodeId> lookup(const util::Endpoint& ep) const;

  // -- Connections ----------------------------------------------------------

  /// Begin connecting. Returns a ConnId immediately; the outcome arrives
  /// later as on_connection_open or on_connection_failed on the initiator.
  ConnId connect(NodeId from, NodeId to);

  /// Send a payload over an open connection from `sender`'s side.
  /// Silently drops if the sender's half is no longer open (mirrors TCP send
  /// after FIN — the study treats those bytes as lost). A send to a peer
  /// that died but whose close has not reached the sender yet counts as
  /// sent and drops at delivery. Accepts anything
  /// convertible to util::Payload; a broadcast should build the Payload
  /// once and pass copies so all hops share one serialized buffer.
  void send(ConnId conn, NodeId sender, util::Payload payload);

  /// Close from either side; the peer gets on_connection_closed after one
  /// propagation delay.
  void close(ConnId conn, NodeId closer);

  /// Whether the initiator's half is open (tests / between-runs use only).
  [[nodiscard]] bool connection_open(ConnId conn) const;
  /// The other endpoint of `conn` relative to `self`.
  [[nodiscard]] NodeId peer_of(ConnId conn, NodeId self) const;

  /// Install (or clear, with nullptr) the fault-injection hook. Not owned;
  /// must outlive the network or be cleared first. With no hook installed
  /// the send path is byte-identical to a fault-free build.
  void set_fault_hook(MessageFaultHook* hook) { fault_hook_ = hook; }

  // -- Timers ---------------------------------------------------------------

  /// Schedule a callback owned by a node; skipped if the node is removed
  /// before it fires. Templated so the callable lands in the event's
  /// sim::Task inline storage directly, with no std::function detour.
  /// The timer is a self-post on the slot's entity, so call only from that
  /// node's own context or between runs (every protocol timer already is).
  template <typename F>
  void schedule_node(NodeId id, SimDuration delay, F&& fn) {
    if (id >= slots_.size()) return;
    std::uint64_t gen = slots_[id].generation;
    auto guarded = [this, id, gen, fn = std::forward<F>(fn)]() mutable {
      if (id < slots_.size() && slots_[id].node && slots_[id].generation == gen) fn();
    };
    engine_.post(slots_[id].entity, engine_.now() + delay, std::move(guarded));
  }

  // -- Introspection for tests / stats --------------------------------------

  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const {
    return bytes_delivered_.load(std::memory_order_relaxed);
  }
  /// O(1): counts open halves and reports half of that; call between runs.
  [[nodiscard]] std::size_t open_connection_count() const;

  /// Set the nodes_alive / connections_open gauges from the shared atomic
  /// totals. Workers cannot maintain them per event (a per-event high-water
  /// mark would depend on thread interleaving), so the study loop refreshes
  /// them at window boundaries — deterministic because every event at or
  /// before the boundary has run.
  void refresh_gauges();

  LatencyModel latency_model;

 private:
  /// One endpoint's view of a connection. Each slot owns only its own
  /// halves — the peer's half lives in the peer's slot, touched only by the
  /// peer's entity — so no connection state is ever shared between shard
  /// threads. Trivially destructible by design: halves are stored in
  /// the owning shard's arena.
  struct Half {
    ConnId cid = kInvalidConn;
    NodeId peer = kInvalidNode;
    std::int64_t latency_ms = 0;
    SimTime tx_free;      // earliest time this side's uplink is free
    bool open = false;    // accepted/confirmed
    bool closed = false;  // terminal (kept until the release timer erases it)
  };
  static_assert(std::is_trivially_destructible_v<Half>);

  /// A slot's halves: a grow-doubling array backed by the owning shard's
  /// arena (the arena has no free(), so growth abandons the old block —
  /// fine, blocks double), plus an open-addressing index from ConnId to
  /// position (linear probing, load <= 1/2), so a lookup stays O(1) on hub
  /// nodes holding hundreds of halves. The array order is part of the
  /// model — remove_node walks it — so erase keeps the swap-with-last
  /// order. Mutated only from the slot's own entity context.
  struct HalfVec {
    Half* data = nullptr;
    std::uint32_t* index = nullptr;  // position + 1; 0 = empty
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
    [[nodiscard]] std::span<Half> span() { return {data, size}; }
    [[nodiscard]] std::span<const Half> span() const { return {data, size}; }
    [[nodiscard]] const Half* find(ConnId cid) const;
    void push(Arena& arena, const Half& half);
    void erase(ConnId cid);
    void clear();

   private:
    [[nodiscard]] std::uint32_t mask() const { return cap * 2 - 1; }
    [[nodiscard]] std::uint32_t home(ConnId cid) const;
    /// Index slot holding `cid`, or the empty slot that ends its probe run.
    [[nodiscard]] std::uint32_t probe(ConnId cid) const;
    void index_position(std::uint32_t pos);
    void unindex(std::uint32_t hole);
  };

  /// Reclamation of a closed half (RST-like: later arrivals drop). It is
  /// keyed like the self-post that would do it, and applied by settle()
  /// once the slot's executing event passes that key — the same point in
  /// the slot's event order, without queueing an event per close.
  struct Release {
    ShardedEngine::Key key;
    ConnId cid = kInvalidConn;
  };

  struct Slot {
    std::unique_ptr<Node> node;  // null after removal
    HostProfile profile;
    std::uint64_t generation = 0;
    /// The slot's scheduling entity, its connection halves, and the
    /// per-slot sequences that make ConnIds / fault keys intrinsic
    /// (functions of the initiating slot, never of thread order).
    ShardedEngine::EntityId entity = 0;
    HalfVec halves;
    /// Closed halves awaiting reclamation, a min-heap on key (see settle()).
    std::vector<Release> releases;
    std::uint32_t conn_seq = 0;
    std::uint64_t send_seq = 0;
  };

  void deliver(ConnId conn, NodeId to, const util::Payload& payload);
  /// Tell `peer` that `closer` closed `cid`, one latency out; its half is
  /// reclaimed after a grace period for in-flight messages (RST-like).
  void notify_close(ConnId cid, NodeId peer, SimDuration latency);
  /// Reclaim slot `id`'s half `cid` at `at` (see Release).
  void release_at(NodeId id, ConnId cid, SimTime at);
  /// Apply every release of slot `id` ordered before the executing event.
  /// Every access to a slot's halves settles first, so the halves evolve
  /// exactly as if each release were an event of its own.
  void settle(NodeId id);

  // All of the internals run on the owning slot's entity context.

  /// ConnIds encode the initiating slot (high 32 bits, +1 so 0 stays
  /// invalid) and its per-slot connection sequence — unique forever and a
  /// pure function of simulation causality.
  [[nodiscard]] static NodeId conn_initiator(ConnId cid) {
    return static_cast<NodeId>(cid >> 32) - 1;
  }
  /// Intrinsic latency draw: splitmix chain over (seed, initiator, seq),
  /// clamped to >= the engine lookahead so every cross-entity post
  /// satisfies the conservative floor.
  [[nodiscard]] SimDuration draw_latency_keyed(NodeId initiator,
                                               std::uint32_t seq) const;
  Half* find_half(NodeId id, ConnId cid);
  [[nodiscard]] const Half* find_half(NodeId id, ConnId cid) const;
  void push_half(NodeId id, const Half& half);
  void erase_half(NodeId id, ConnId cid);
  /// Mark a half closed (idempotent), maintaining open_halves_ and the
  /// initiator-owned connections_closed counter. Returns true if the half
  /// was open before the call.
  bool close_half(NodeId id, Half& half);
  /// Fail connection `cid` back to its initiator `from`: close its half,
  /// call on_connection_failed, drop the half. False (and nothing done)
  /// when the half is already gone or closed.
  bool fail_initiated(NodeId from, ConnId cid, NodeId to);

  ShardedEngine engine_;
  std::uint64_t seed_ = 0;
  SimDuration lookahead_{};
  std::vector<Slot> slots_;
  std::atomic<std::size_t> alive_count_{0};
  std::atomic<std::size_t> open_halves_{0};  // 2 per open connection
  std::unordered_map<util::Endpoint, NodeId, util::EndpointHash> listeners_;
  MessageFaultHook* fault_hook_ = nullptr;
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> bytes_delivered_{0};

  struct Metrics {
    obs::Counter& connects_attempted;
    obs::Counter& connects_failed;
    obs::Counter& connections_opened;
    obs::Counter& connections_closed;
    obs::Counter& messages_sent;
    obs::Counter& messages_delivered;
    obs::Counter& messages_dropped;
    obs::Counter& bytes_delivered;
    obs::Gauge& nodes_alive;
    obs::Gauge& connections_open;
    obs::Histogram& message_bytes;
    Metrics();
  } metrics_;
};

}  // namespace p2p::sim
