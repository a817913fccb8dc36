// A Gnutella 0.6 servent: handshake, ultrapeer/leaf topology, descriptor
// routing (flood + GUID route-back), QRP last-hop filtering, query
// answering via a pluggable policy, and HTTP uploads/downloads with PUSH
// for firewalled sources.
//
// This is the instrumentable client the study runs: both the measured
// population (honest + infected peers, via different QueryAnswerer
// implementations) and the measurement apparatus itself (the crawler wraps
// a leaf Servent) are instances of this class.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "files/file.h"
#include "gnutella/host_cache.h"
#include "gnutella/http.h"
#include "gnutella/message.h"
#include "gnutella/qrp.h"
#include "gnutella/shared_index.h"
#include "sim/network.h"
#include "util/rng.h"

namespace p2p::gnutella {

/// How a servent answers queries and serves uploads. Honest peers wrap a
/// SharedFileIndex; infected peers synthesize query-echoing artifacts
/// (see agents::InfectedAnswerer).
class QueryAnswerer {
 public:
  virtual ~QueryAnswerer() = default;

  /// Result entries to advertise for this query (may be empty).
  virtual std::vector<QueryHitResult> answer(const std::string& criteria) = 0;

  /// Resolve a previously advertised index to content for upload; nullptr
  /// means 404.
  virtual std::shared_ptr<const files::FileContent> resolve(std::uint32_t index) = 0;

  /// Contribute keywords to the leaf's QRP table. Worm-style answerers
  /// fill the table completely so no query is filtered away from them.
  virtual void populate_qrt(QueryRouteTable& qrt) const = 0;

  virtual std::uint32_t shared_file_count() const { return 0; }
  virtual std::uint32_t shared_kb() const { return 0; }
};

/// Straightforward honest answerer over a shared-file index.
class IndexAnswerer final : public QueryAnswerer {
 public:
  explicit IndexAnswerer(SharedFileIndex index) : index_(std::move(index)) {}

  std::vector<QueryHitResult> answer(const std::string& criteria) override;
  std::shared_ptr<const files::FileContent> resolve(std::uint32_t index) override;
  void populate_qrt(QueryRouteTable& qrt) const override;
  std::uint32_t shared_file_count() const override {
    return static_cast<std::uint32_t>(index_.count());
  }
  std::uint32_t shared_kb() const override {
    return static_cast<std::uint32_t>(index_.total_bytes() / 1024);
  }

  [[nodiscard]] const SharedFileIndex& index() const { return index_; }

 private:
  SharedFileIndex index_;
};

struct ServentConfig {
  bool ultrapeer = false;
  /// TTL stamped on originated queries.
  std::uint8_t query_ttl = 4;
  /// Hop budget cap enforced when forwarding.
  std::uint8_t max_ttl = 7;
  /// Ultrapeer-to-ultrapeer target degree (outgoing); up to 2x accepted.
  std::size_t up_degree = 6;
  /// Leaf slots an ultrapeer offers.
  std::size_t leaf_slots = 30;
  /// Ultrapeer connections a leaf maintains.
  std::size_t leaf_up_count = 3;
  unsigned qrt_bits = 13;
  /// Ablation switch (A2): ultrapeers consult leaf QRP tables for last-hop
  /// forwarding when true, flood all leaves when false.
  bool use_qrp = true;
  /// Download give-up timeout.
  sim::SimDuration download_timeout = sim::SimDuration::seconds(90);
  /// Reconnect backoff after a failed/closed overlay link.
  sim::SimDuration reconnect_delay = sim::SimDuration::seconds(15);
  /// Pong caching: how many neighbour endpoints a ping reply advertises
  /// (host discovery beyond the bootstrap cache).
  std::size_t pong_fanout = 4;
  /// Cap on endpoints learned from pongs.
  std::size_t learned_host_max = 50;
  /// Upload slots: at most this many uploads may start within
  /// upload_window; excess GETs get "503 Busy" (requesters retry from
  /// alternate sources). 0 disables the limit.
  std::size_t upload_slots = 6;
  sim::SimDuration upload_window = sim::SimDuration::seconds(30);
};

/// A query hit delivered to the originator of the query.
struct HitEvent {
  Guid query_guid;
  QueryHit hit;
  std::uint8_t hops = 0;
  sim::SimTime at;
};

struct DownloadOutcome {
  std::uint64_t request_id = 0;
  bool success = false;
  std::string filename;
  util::Bytes content;
  util::Endpoint source;
  Guid servent_guid;
  std::string error;
};

struct ServentStats {
  std::uint64_t uploads_refused_busy = 0;
  std::uint64_t queries_originated = 0;
  std::uint64_t queries_received = 0;
  std::uint64_t queries_forwarded_up = 0;
  std::uint64_t queries_forwarded_leaf = 0;
  std::uint64_t qrp_suppressed = 0;
  std::uint64_t hits_sent = 0;
  std::uint64_t hits_routed = 0;
  std::uint64_t hits_received = 0;
  std::uint64_t pushes_sent = 0;
  std::uint64_t pushes_routed = 0;
  std::uint64_t uploads_served = 0;
  std::uint64_t downloads_ok = 0;
  std::uint64_t downloads_failed = 0;
  std::uint64_t dropped_duplicate = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_malformed = 0;
};

class Servent : public sim::Node {
 public:
  Servent(ServentConfig config, std::shared_ptr<QueryAnswerer> answerer,
          std::shared_ptr<HostCache> host_cache, std::uint64_t rng_seed);

  // -- sim::Node ------------------------------------------------------------
  void start() override;
  bool accept_connection(sim::NodeId from) override;
  void on_connection_open(sim::ConnId conn, sim::NodeId peer, bool initiated) override;
  void on_connection_failed(sim::ConnId conn, sim::NodeId target) override;
  void on_message(sim::ConnId conn, const util::Payload& payload) override;
  void on_connection_closed(sim::ConnId conn) override;

  // -- Client API -----------------------------------------------------------

  /// Originate a query; returns its GUID (matches later HitEvents).
  Guid send_query(const std::string& criteria);

  /// Originate a query with (leaf-side) dynamic querying, LimeWire's 2006
  /// bandwidth saver: probe one ultrapeer at a low TTL, widen to further
  /// ultrapeers at growing TTLs only while results are still needed.
  /// Previously-probed nodes drop the repeated GUID as a duplicate, so
  /// each round only reaches new overlay territory.
  Guid send_query_dynamic(const std::string& criteria, std::size_t target_results,
                          sim::SimDuration probe_interval);

  /// Graceful leave: send BYE on every overlay link and close all
  /// connections. Call before removing the node from the network (peers
  /// refill their slots immediately instead of waiting for a dead-link
  /// timeout).
  void shutdown(std::uint16_t code = 200, const std::string& reason = "leaving");

  /// Re-send the QRP table to every connected ultrapeer. Call after the
  /// answerer's keyword universe changes (e.g. a peer becoming infected
  /// starts advertising an all-ones table).
  void refresh_qrt();

  /// Fetch one result of a previously received hit. Returns a request id;
  /// completion arrives on the download callback. Handles direct HTTP and
  /// PUSH-mediated transfers transparently.
  std::uint64_t download(const QueryHit& source_hit, const QueryHitResult& result);

  void set_hit_callback(std::function<void(const HitEvent&)> cb) {
    hit_callback_ = std::move(cb);
  }
  void set_download_callback(std::function<void(const DownloadOutcome&)> cb) {
    download_callback_ = std::move(cb);
  }
  /// Observe every query this servent processes (first copy only; dups are
  /// suppressed before the callback). This is the passive-instrumentation
  /// hook: run an ultrapeer with this set and you see the traffic passing
  /// through it.
  void set_query_callback(std::function<void(const Query&, std::uint8_t hops)> cb) {
    query_callback_ = std::move(cb);
  }

  [[nodiscard]] const Guid& servent_guid() const { return servent_guid_; }
  [[nodiscard]] const ServentConfig& config() const { return config_; }
  [[nodiscard]] const ServentStats& stats() const { return stats_; }
  [[nodiscard]] QueryAnswerer& answerer() { return *answerer_; }

  /// Established overlay links (post-handshake).
  [[nodiscard]] std::size_t overlay_link_count() const;
  [[nodiscard]] std::size_t leaf_count() const;
  /// Endpoints learned from pong caching (beyond the bootstrap cache).
  [[nodiscard]] const std::vector<util::Endpoint>& learned_hosts() const {
    return learned_hosts_;
  }

 private:
  enum class ConnKind {
    kUnknown,      // inbound, nature not yet revealed by first message
    kOverlayOut,   // we initiated an overlay link
    kOverlayIn,    // peer initiated an overlay link
    kTransferOut,  // we initiated to fetch a file
    kTransferIn,   // peer fetches from us
    kPushOut,      // we connect back to a requester after a PUSH
  };
  enum class HsState { kNone, kSentConnect, kSentOk, kEstablished };

  struct ConnState {
    ConnKind kind = ConnKind::kUnknown;
    HsState hs = HsState::kNone;
    sim::NodeId peer = sim::kInvalidNode;
    bool peer_ultrapeer = false;
    /// Advertised listen endpoint from the handshake (for pong caching).
    util::Endpoint peer_listen;
    bool has_peer_listen = false;
    /// The peer's route table, allocated by its first RESET or PATCH, so
    /// links that never receive QRP carry none. Gates queries only once a
    /// PATCH has armed it (`has_qrt`).
    std::optional<QueryRouteTable> qrt;
    bool has_qrt = false;
    std::uint64_t download_id = 0;  // for kTransferOut/kPushOut
  };

  struct PendingDownload {
    std::uint64_t id = 0;
    QueryHitResult result;
    util::Endpoint source;
    Guid servent_guid;
    bool via_push = false;
    bool transfer_started = false;
  };
  struct DynamicQueryState {
    std::string criteria;
    std::size_t target_results = 0;
    std::size_t results_seen = 0;
    /// First probe stays within one ultrapeer's horizon (TTL 1), then
    /// widens.
    std::uint8_t next_ttl = 1;
    std::vector<sim::ConnId> remaining_conns;
    sim::SimDuration probe_interval;
  };

  // Handshake.
  void begin_overlay_connect();
  void send_handshake_connect(sim::ConnId conn);
  void handle_handshake(sim::ConnId conn, ConnState& state, util::ByteView wire);
  void established(sim::ConnId conn, ConnState& state);
  void send_qrt(sim::ConnId conn);

  // Descriptor handling.
  void handle_descriptor(sim::ConnId conn, ConnState& state, util::ByteView wire);
  void handle_query(sim::ConnId conn, ConnState& state, const Message& msg);
  void handle_query_hit(sim::ConnId conn, const Message& msg);
  void handle_ping(sim::ConnId conn, const Message& msg);
  void handle_pong(const Message& msg);
  void handle_push(sim::ConnId conn, const Message& msg);
  void handle_qrp(ConnState& state, const Message& msg);
  void answer_query(sim::ConnId conn, const Message& msg);

  // Transfers.
  void handle_http_request(sim::ConnId conn, util::ByteView wire);
  void handle_giv(sim::ConnId conn, ConnState& state, util::ByteView wire);
  void handle_http_response(sim::ConnId conn, ConnState& state, util::ByteView wire);
  void fail_download(std::uint64_t id, const std::string& error);
  void start_push(PendingDownload& pending);

  // Maintenance.
  void ensure_overlay_links();
  void note_seen(const Guid& guid);
  [[nodiscard]] bool already_seen(const Guid& guid) const;
  void send_msg(sim::ConnId conn, const Message& msg);
  /// Route `msg` on one hop: re-encode its payload under a header with
  /// one less TTL and one more hop, without copying the Message.
  void send_forward(sim::ConnId conn, const Message& msg);
  [[nodiscard]] util::Endpoint self_endpoint() const;
  [[nodiscard]] bool self_firewalled() const;

  ServentConfig config_;
  std::shared_ptr<QueryAnswerer> answerer_;
  std::shared_ptr<HostCache> host_cache_;
  util::Rng rng_;
  Guid servent_guid_;

  std::unordered_map<sim::ConnId, ConnState> conns_;
  std::size_t pending_overlay_connects_ = 0;
  std::vector<util::Endpoint> learned_hosts_;
  std::vector<sim::SimTime> recent_upload_starts_;

  // Duplicate suppression + route-back state.
  std::unordered_set<Guid, GuidHash> seen_;
  std::vector<Guid> seen_order_;  // FIFO eviction
  std::unordered_map<Guid, sim::ConnId, GuidHash> query_routes_;
  std::unordered_map<Guid, sim::ConnId, GuidHash> push_routes_;
  std::unordered_set<Guid, GuidHash> our_queries_;

  // Downloads.
  std::unordered_map<std::uint64_t, PendingDownload> pending_downloads_;
  std::uint64_t next_download_id_ = 1;

  // Dynamic querying.
  void dynamic_query_probe(Guid guid);
  std::unordered_map<Guid, DynamicQueryState, GuidHash> dynamic_queries_;

  std::function<void(const HitEvent&)> hit_callback_;
  std::function<void(const DownloadOutcome&)> download_callback_;
  std::function<void(const Query&, std::uint8_t)> query_callback_;
  ServentStats stats_;

  static constexpr std::size_t kSeenCacheMax = 100'000;
};

}  // namespace p2p::gnutella
