// The KAD study driver: a DHT population with index-poisoning infected
// peers, one active instrumented client, and a distributed-honeypot
// measurement mode (N passive bait-advertising vantage points) — the
// E9/E10 coverage-vs-vantage-count experiment family.
#pragma once

#include <cstdint>
#include <string>

#include "agents/churn.h"
#include "agents/population.h"
#include "core/study.h"
#include "crawler/kad_crawler.h"
#include "fault/fault.h"
#include "obs/timeseries.h"

namespace p2p::core {

struct KadStudyConfig {
  std::uint64_t seed = 2008;
  agents::KadPopulationConfig population{};
  agents::ChurnConfig churn{};
  crawler::CrawlConfig crawl{};
  std::size_t workload_top_n = 150;
  /// Honeypot vantage points deployed alongside the active client.
  std::size_t honeypots = 16;
  /// Bait titles (top catalog ranks) every vantage advertises.
  std::size_t honeypot_bait = 20;
  /// Fault plan and schedule seed; see LimewireStudyConfig.
  fault::FaultSpec faults{};
  std::uint64_t fault_seed = 0;
  /// Windowed metric sampling; see LimewireStudyConfig.
  obs::TimeSeriesConfig timeseries{};
};

[[nodiscard]] KadStudyConfig kad_standard();
[[nodiscard]] KadStudyConfig kad_quick();
/// Long-horizon capture preset: a small population crawled for ten-plus
/// simulated weeks at a slow cadence — the out-of-core recording/replay
/// workload of the longhaul CI tier. Wall-clock cost stays in seconds.
[[nodiscard]] KadStudyConfig kad_longhaul();

/// Run a KAD study. The result's record stream interleaves the active
/// client's responses (network "kad") with the honeypot observation log
/// (network "kad.honeypot/NN"), time-ordered; the sink sees the merged
/// stream in exactly that order.
[[nodiscard]] StudyResult run_kad_study(const KadStudyConfig& config,
                                        crawler::RecordSink* record_sink = nullptr);

[[nodiscard]] std::uint64_t config_hash(const KadStudyConfig& config);

}  // namespace p2p::core
