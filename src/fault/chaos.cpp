#include "fault/chaos.h"

#include "obs/trace.h"

namespace p2p::fault {

CrashDriver::CrashDriver(sim::Network& net, agents::ChurnDriver& churn,
                         FaultInjector& injector)
    : net_(net), churn_(churn), injector_(injector) {}

void CrashDriver::start(sim::SimTime horizon) {
  if (injector_.spec().crashes_per_hour <= 0.0) return;
  // Precompute the whole schedule from the plan's crash stream (consumed on
  // this thread, before the run) and bootstrap-post each strike to its
  // victim's entity. The stream walk is identical at every shard count.
  std::size_t nspecs = churn_.specs().size();
  if (nspecs == 0) return;
  sim::SimTime t = net_.now();
  while (true) {
    t = t + injector_.plan().next_crash_delay();
    if (t >= horizon) break;
    std::size_t victim = injector_.plan().pick_victim(nspecs);
    sim::SimDuration downtime = injector_.plan().next_restart_delay();
    net_.engine().post(
        net_.entity_of(churn_.spec_slot(victim)), t, [this, victim, downtime] {
          // Victim offline → the strike fizzles (nothing to crash).
          if (churn_.node_of(victim) == sim::kInvalidNode) return;
          P2P_TRACE(obs::Component::kNet, "peer_crash", net_.now(),
                    obs::tf("spec", static_cast<std::uint64_t>(victim)),
                    obs::tf("downtime_ms",
                            static_cast<std::uint64_t>(downtime.count_ms())));
          churn_.crash(victim, downtime);
          crashes_.fetch_add(1, std::memory_order_relaxed);
          injector_.count_crash();
          injector_.count_restart();  // the restart is committed at crash time
        });
  }
}

}  // namespace p2p::fault
