#include "agents/churn.h"

#include <algorithm>

#include "gnutella/servent.h"

namespace p2p::agents {

ChurnDriver::ChurnDriver(sim::Network& net, std::vector<PeerSpec> specs,
                         ChurnConfig config)
    : net_(net),
      specs_(std::move(specs)),
      current_(specs_.size(), sim::kInvalidNode),
      config_(config) {}

void ChurnDriver::start() {
  double session_s = config_.mean_session.as_seconds();
  double offline_s = config_.mean_offline.as_seconds();
  double stationary = session_s / (session_s + offline_s);
  double p_online = config_.initial_online_override >= 0.0
                        ? config_.initial_online_override
                        : stationary;

  // Pre-register every spec's slot (the entity partition is fixed before
  // the first run) and give each spec its own rng stream, so a spec's whole
  // on/off schedule is a pure function of (churn seed, spec index).
  slot_ids_.resize(specs_.size());
  spec_rngs_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    slot_ids_[i] = net_.register_peer(specs_[i].profile);
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    std::uint64_t state = config_.seed ^ 0xc8a2'11ed'5eedull;
    state ^= util::splitmix64(state) + i;
    spec_rngs_.emplace_back(util::splitmix64(state));
    util::Rng& rng = spec_rngs_.back();
    // Small jitter so the initial wave of joins doesn't synchronize.
    sim::SimDuration delay =
        rng.chance(p_online)
            ? sim::SimDuration::millis(
                  static_cast<std::int64_t>(rng.uniform(0.0, 30'000.0)))
            : sim::SimDuration::millis(static_cast<std::int64_t>(
                  1000.0 * rng.exponential(offline_s)));
    net_.engine().post(net_.entity_of(slot_ids_[i]), net_.now() + delay,
                       [this, i] { join(i); });
  }
}

void ChurnDriver::join(std::size_t idx) {
  if (current_[idx] != sim::kInvalidNode) return;
  // Runs on the spec's own entity: attach into the pre-registered slot and
  // draw the session length from the spec's private stream.
  net_.attach_node(slot_ids_[idx], specs_[idx].make());
  current_[idx] = slot_ids_[idx];
  joins_.fetch_add(1, std::memory_order_relaxed);
  auto session = sim::SimDuration::millis(static_cast<std::int64_t>(
      1000.0 * spec_rngs_[idx].exponential(config_.mean_session.as_seconds())));
  net_.engine().post(net_.entity_of(slot_ids_[idx]), net_.now() + session,
                     [this, idx] { leave(idx); });
}

void ChurnDriver::leave(std::size_t idx) {
  if (current_[idx] == sim::kInvalidNode) return;
  // Most real departures are graceful client exits: Gnutella servents send
  // BYE so peers refill their slots immediately.
  if (auto* servent = dynamic_cast<gnutella::Servent*>(net_.node(current_[idx]))) {
    servent->shutdown(200, "client exiting");
  }
  net_.remove_node(current_[idx]);
  current_[idx] = sim::kInvalidNode;
  leaves_.fetch_add(1, std::memory_order_relaxed);
  auto offline = sim::SimDuration::millis(static_cast<std::int64_t>(
      1000.0 * spec_rngs_[idx].exponential(config_.mean_offline.as_seconds())));
  net_.engine().post(net_.entity_of(slot_ids_[idx]), net_.now() + offline,
                     [this, idx] { join(idx); });
}

void ChurnDriver::crash(std::size_t idx, sim::SimDuration downtime) {
  if (idx >= current_.size() || current_[idx] == sim::kInvalidNode) return;
  // No shutdown(): an abrupt crash sends no BYE. Peers keep the dead
  // endpoint in their tables until their own maintenance notices.
  net_.remove_node(current_[idx]);
  current_[idx] = sim::kInvalidNode;
  leaves_.fetch_add(1, std::memory_order_relaxed);
  net_.engine().post(net_.entity_of(slot_ids_[idx]), net_.now() + downtime,
                     [this, idx] { join(idx); });
}

std::size_t ChurnDriver::online_count() const {
  return static_cast<std::size_t>(
      std::count_if(current_.begin(), current_.end(),
                    [](sim::NodeId id) { return id != sim::kInvalidNode; }));
}

sim::NodeId ChurnDriver::node_of(std::size_t spec_index) const {
  return current_[spec_index];
}

}  // namespace p2p::agents
