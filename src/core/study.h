// The study driver: wires population, churn, crawler, scanner and analysis
// into one reproducible run per network — the programmatic equivalent of
// the paper's month of instrumented crawling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agents/churn.h"
#include "agents/population.h"
#include "crawler/limewire_crawler.h"
#include "crawler/openft_crawler.h"
#include "crawler/records.h"
#include "fault/fault.h"
#include "malware/catalogs.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "trace/codec.h"

namespace p2p::core {

struct LimewireStudyConfig {
  std::uint64_t seed = 2006;
  agents::GnutellaPopulationConfig population{};
  agents::ChurnConfig churn{};
  crawler::CrawlConfig crawl{};
  /// Top catalog works turned into workload queries.
  std::size_t workload_top_n = 150;
  /// Number of instrumented clients crawling in parallel from distinct
  /// vantage addresses; their logs are merged time-ordered.
  std::size_t crawler_count = 1;
  /// Fault plan (all-zero default = fault-free, byte-identical legacy run).
  /// Set via apply_faults so the crawler's resilience comes on with it.
  fault::FaultSpec faults{};
  /// Seed of the fault schedule; 0 derives it from `seed` so one --seed
  /// still controls the whole run.
  std::uint64_t fault_seed = 0;
  /// Windowed metric sampling (disabled by default). When enabled the run
  /// loop tiles at window boundaries — behavior-neutral — and the result
  /// carries a TimeSeries. Folded into config_hash only when enabled.
  obs::TimeSeriesConfig timeseries{};
  /// Shards of the sim::ShardedEngine the study runs on (0 means 1). Output
  /// is identical at every shard count; a model marker (never the count) is
  /// folded into config_hash so the models can't share trace caches.
  std::size_t shards = 1;
  /// With shards >= 1: run the reduced SoA capacity model (core/shard_study)
  /// instead of the full-fidelity model — the population-scaling variant.
  /// Ignored when shards == 0.
  bool soa_capacity = false;
};

struct OpenFtStudyConfig {
  std::uint64_t seed = 2007;
  agents::OpenFtPopulationConfig population{};
  agents::ChurnConfig churn{};
  crawler::CrawlConfig crawl{};
  std::size_t workload_top_n = 150;
  /// Fault plan and schedule seed; see LimewireStudyConfig.
  fault::FaultSpec faults{};
  std::uint64_t fault_seed = 0;
  /// Windowed metric sampling; see LimewireStudyConfig.
  obs::TimeSeriesConfig timeseries{};
  /// Sharded-engine worker count; see LimewireStudyConfig.
  std::size_t shards = 1;
  /// Reduced SoA capacity model switch; see LimewireStudyConfig.
  bool soa_capacity = false;
};

/// Enable a fault plan on a study config: stores the spec + schedule seed
/// and switches the crawler to its resilient fetch policy (timeouts,
/// backoff retries, circuit breaker). A non-enabled spec is a no-op, so
/// `--faults none` leaves the run byte-identical to no flag at all.
void apply_faults(LimewireStudyConfig& config, const fault::FaultSpec& spec,
                  std::uint64_t fault_seed = 0);
void apply_faults(OpenFtStudyConfig& config, const fault::FaultSpec& spec,
                  std::uint64_t fault_seed = 0);

struct StudyResult {
  std::vector<crawler::ResponseRecord> records;
  crawler::CrawlStats crawl_stats;
  malware::CalibratedCatalog strain_catalog;
  std::uint64_t events_executed = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t churn_joins = 0;
  std::uint64_t churn_leaves = 0;
  /// Snapshot of the global metrics registry covering exactly this run
  /// (the registry is reset at study start). Deterministic for a fixed
  /// seed, modulo wall-clock histograms (excluded from exports by default).
  obs::MetricsSnapshot metrics;
  /// Whether this run injected faults, and what the injector did. Both stay
  /// all-zero (and out of the JSON report) for fault-free runs.
  bool faults_enabled = false;
  fault::FaultCounters fault_counters{};
  /// Windowed counter deltas / gauge values over the run; empty (and out
  /// of every export) unless the config enabled time-series recording.
  obs::TimeSeries timeseries;
};

/// Presets. `standard` runs the paper-scale month; `quick` is a scaled-down
/// configuration for tests and examples (minutes of simulated time per
/// second of wall clock).
[[nodiscard]] LimewireStudyConfig limewire_standard();
[[nodiscard]] LimewireStudyConfig limewire_quick();
[[nodiscard]] OpenFtStudyConfig openft_standard();
[[nodiscard]] OpenFtStudyConfig openft_quick();

/// Run a study. When `record_sink` is non-null it receives every response
/// record in exactly the order it lands in StudyResult.records (for a
/// multi-vantage LimeWire study that is the merged, renumbered stream), so
/// a trace::TraceWriter sink captures a byte-replayable copy of the crawl.
[[nodiscard]] StudyResult run_limewire_study(const LimewireStudyConfig& config,
                                             crawler::RecordSink* record_sink = nullptr);
[[nodiscard]] StudyResult run_openft_study(const OpenFtStudyConfig& config,
                                           crawler::RecordSink* record_sink = nullptr);

/// The non-record half of a StudyResult (run counters, crawl stats, metrics
/// snapshot) as persisted in a trace summary block.
[[nodiscard]] trace::StudySummary study_summary(const StudyResult& result);
/// Inverse of study_summary. Leaves `records` and `strain_catalog` alone.
void apply_summary(const trace::StudySummary& summary, StudyResult& result);

/// Persist a finished study as a trace file (header + record blocks + one
/// summary block). Returns false on I/O failure.
[[nodiscard]] bool save_study_trace(const std::string& path,
                                    const StudyResult& result,
                                    const trace::TraceHeader& header);
/// Load a trace back into a StudyResult. Fails (returns false) on any open
/// error, block corruption, truncated tail, missing summary, or — when
/// `expected_config_hash` is non-zero — a header hash mismatch (stale file).
/// Does not set `strain_catalog`; callers pick the matching catalog.
[[nodiscard]] bool load_study_trace(const std::string& path, StudyResult& result,
                                    std::uint64_t expected_config_hash = 0);

/// Stable 64-bit digest over every field of a study configuration
/// (including nested population/churn/crawl/corpus settings and the seed).
/// Cache layers key on it so a changed preset can never silently serve a
/// stale crawl. Keep the hash functions in study.cpp in sync when adding
/// config fields.
[[nodiscard]] std::uint64_t config_hash(const LimewireStudyConfig& config);
[[nodiscard]] std::uint64_t config_hash(const OpenFtStudyConfig& config);

}  // namespace p2p::core
