// Peer churn: exponential on/off sessions per peer, the dominant dynamic of
// real filesharing populations. A peer keeps its identity (address, shares,
// infection) across sessions; each online session is a fresh node instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "agents/population.h"
#include "sim/network.h"

namespace p2p::agents {

struct ChurnConfig {
  sim::SimDuration mean_session = sim::SimDuration::hours(4);
  sim::SimDuration mean_offline = sim::SimDuration::hours(6);
  /// Peers initially online with probability session/(session+offline)
  /// (the stationary distribution) unless overridden.
  double initial_online_override = -1.0;  // <0 means use stationary
  std::uint64_t seed = 7;
};

class ChurnDriver {
 public:
  ChurnDriver(sim::Network& net, std::vector<PeerSpec> specs, ChurnConfig config);

  /// Schedule initial joins and the ongoing on/off process.
  void start();

  /// Fault-injected abrupt departure (src/fault): the peer vanishes with no
  /// graceful BYE — neighbours must discover the dead link themselves — and
  /// rejoins after `downtime`, keeping its identity. No-op while offline.
  /// The crash does not consume the spec's session stream, so enabling
  /// fault churn never shifts the organic session schedule.
  void crash(std::size_t idx, sim::SimDuration downtime);

  [[nodiscard]] std::uint64_t joins() const {
    return joins_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t leaves() const {
    return leaves_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t online_count() const;

  /// Current node id of a spec (kInvalidNode while offline). Per-spec state
  /// is owned by the spec's entity, so call this from that entity's context
  /// (the CrashDriver does) or between runs.
  [[nodiscard]] sim::NodeId node_of(std::size_t spec_index) const;
  [[nodiscard]] const std::vector<PeerSpec>& specs() const { return specs_; }

  /// The registered slot of a spec (valid after start()).
  [[nodiscard]] sim::NodeId spec_slot(std::size_t spec_index) const {
    return slot_ids_[spec_index];
  }

 private:
  void join(std::size_t idx);
  void leave(std::size_t idx);

  sim::Network& net_;
  std::vector<PeerSpec> specs_;
  std::vector<sim::NodeId> current_;
  ChurnConfig config_;
  /// One pre-registered slot and one private rng stream per spec (derived
  /// from the churn seed and the spec index), so each spec's session
  /// schedule is independent of every other spec's — and therefore of the
  /// shard partition.
  std::vector<sim::NodeId> slot_ids_;
  std::vector<util::Rng> spec_rngs_;
  std::atomic<std::uint64_t> joins_{0};
  std::atomic<std::uint64_t> leaves_{0};
};

}  // namespace p2p::agents
