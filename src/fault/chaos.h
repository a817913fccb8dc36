// Crash/restart churn: the fault plan's host-level failure mode. Strikes a
// random churnable peer on a seed-derived exponential schedule and crashes
// it abruptly (no graceful BYE — neighbours discover the dead link by
// timeout, exactly the failure long-running crawls must survive). The peer
// restarts after a plan-drawn downtime, keeping its identity.
#pragma once

#include <atomic>

#include "agents/churn.h"
#include "fault/fault.h"
#include "sim/network.h"

namespace p2p::fault {

class CrashDriver {
 public:
  /// `injector` and `churn` must outlive the driver; the driver schedules
  /// against `net`'s executor and only crashes peers managed by `churn`.
  CrashDriver(sim::Network& net, agents::ChurnDriver& churn, FaultInjector& injector);

  /// Schedule every crash before `horizon` (the study end); no-op when
  /// crashes_per_hour is zero. Call before the first run.
  ///
  /// The whole crash schedule is precomputed from the plan's crash stream
  /// and each strike is bootstrap-posted to its victim's entity. Victims
  /// are drawn over ALL churnable specs — an offline victim makes the strike
  /// a no-op — because the online set at a future instant isn't knowable up
  /// front; the realized crash rate scales with the online fraction.
  void start(sim::SimTime horizon);

  [[nodiscard]] std::uint64_t crashes() const {
    return crashes_.load(std::memory_order_relaxed);
  }

 private:
  sim::Network& net_;
  agents::ChurnDriver& churn_;
  FaultInjector& injector_;
  std::atomic<std::uint64_t> crashes_{0};
};

}  // namespace p2p::fault
