// Shared internals of the per-network study drivers (study.cpp,
// kad_study.cpp): the run skeleton every driver calls (run_study), its event
// loop and progress plumbing, and the config_hash field mixer. A driver
// supplies only its population builder and its crawler step.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "agents/churn.h"
#include "core/study.h"
#include "crawler/limewire_crawler.h"
#include "crawler/workload.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "files/corpus.h"
#include "malware/scanner.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/timeseries.h"
#include "sim/network.h"
#include "util/rng.h"

namespace p2p::core::internal {

inline sim::SimTime study_end(const crawler::CrawlConfig& crawl) {
  // Small grace period so in-flight hits/downloads at crawl end settle.
  return sim::SimTime::zero() + crawl.warmup + crawl.duration +
         sim::SimDuration::minutes(10);
}

struct ProgressCounters {
  std::uint64_t responses = 0;
  std::uint64_t degraded = 0;
};

// The study's event loop. Plain run_until when nothing time-resolved is
// wanted; otherwise tiled at window boundaries — run_until executes every
// event with at <= until and then advances the clock, so the tiling is
// exactly behavior-neutral (same events, same order, same records) and only
// adds the between-event sampling/progress hooks. `counters` supplies the
// live response/degradation totals for progress lines.
template <typename CountersFn>
obs::TimeSeries run_study_loop(sim::Network& net,
                               const crawler::CrawlConfig& crawl,
                               const obs::TimeSeriesConfig& ts,
                               std::string_view network, CountersFn&& counters) {
  OBS_SPAN("study.run");
  sim::SimTime end = study_end(crawl);
  obs::ProgressReporter* progress = obs::ProgressReporter::current();
  bool want_progress = progress != nullptr && progress->enabled();
  if (!ts.enabled() && !want_progress) {
    net.engine().run_until(end);
    net.refresh_gauges();
    return {};
  }
  // Progress without a time series still needs boundaries to report at:
  // ~1% of the run, but no finer than a simulated minute.
  sim::SimDuration step =
      ts.enabled() ? ts.window
                   : std::max(sim::SimDuration::minutes(1),
                              (end - sim::SimTime::zero()) / 100);
  obs::TimeSeriesRecorder recorder(obs::MetricsRegistry::global(), ts);
  sim::SimTime t = sim::SimTime::zero();
  while (t < end) {
    t = std::min(t + step, end);
    net.engine().run_until(t);
    // The network can't maintain per-event gauges (a high-water mark would
    // depend on worker interleaving); refresh them at the window boundary —
    // everything at or before `t` has executed, so the values are
    // deterministic — before the recorder samples.
    net.refresh_gauges();
    recorder.sample(t);
    if (want_progress) {
      ProgressCounters c = counters();
      obs::StudyProgress p;
      p.network = network;
      p.sim_now = t;
      p.sim_end = end;
      p.events_executed = net.engine().executed();
      p.responses = c.responses;
      p.degraded = c.degraded;
      p.final = t == end;
      progress->study_tick(p);
    }
  }
  return recorder.take();
}

/// Executor partition for the full-fidelity studies: spawned shard workers
/// record into the study's registry via a thread-scoped guard. At one shard
/// no worker is spawned, so it equals the default ShardingConfig.
inline sim::ShardingConfig study_sharding(std::size_t shards) {
  sim::ShardingConfig sharding;
  sharding.shards = shards;
  sharding.worker_context = [&reg = obs::MetricsRegistry::global()] {
    return std::static_pointer_cast<void>(
        std::make_shared<obs::ScopedMetricsRegistry>(reg));
  };
  return sharding;
}

/// What a driver's crawler step works with: the network and population
/// built so far, the shared scanner and query workload, and the fault
/// injector (null in a fault-free run). The step adds its crawler(s).
template <typename Population, typename Crawler>
struct StudySetup {
  sim::Network& net;
  Population& pop;
  std::shared_ptr<malware::Scanner> scanner;
  crawler::QueryWorkload workload;
  fault::FaultInjector* injector;
  std::vector<std::unique_ptr<Crawler>> crawlers;
};

/// The measurement protocol every network driver runs, in this order:
/// reset the registry; create the network on `shards` shards and install
/// the fault hook; build the population (study.setup span), the scanner and
/// the workload; run `crawler_step`, which adds the crawlers and returns
/// the hosts churn drives; start churn (seed salted per network), the
/// crawlers and the crash driver; run the loop; finalize (study.finalize
/// span) and fill the result.
///
/// A single crawler streams its records into `record_sink` as it finalizes,
/// in the order they land in the result. Several vantage logs are merged
/// time-ordered with fresh ids and streamed after the merge.
///
/// perfbench/compose.cpp repeats this order call for call, so the order of
/// add_node calls, rng draws and registry counters here is load-bearing.
template <typename Crawler, typename Config, typename BuildPopulation,
          typename CrawlerStep>
StudyResult run_study(const Config& config, std::string_view network,
                      std::size_t shards, std::uint64_t churn_salt,
                      crawler::RecordSink* record_sink,
                      BuildPopulation&& build_population,
                      CrawlerStep&& crawler_step) {
  // Each run owns the registry window: reset here, snapshot at the end.
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed, study_sharding(shards));
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    std::uint64_t fault_seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    injector = std::make_unique<fault::FaultInjector>(config.faults, fault_seed);
    net.set_fault_hook(injector.get());
  }
  auto pop = [&] {
    OBS_SPAN("study.setup");
    return build_population(net);
  }();
  StudySetup<decltype(pop), Crawler> setup{
      net,
      pop,
      std::make_shared<malware::Scanner>(pop.strain_catalog.strains),
      crawler::QueryWorkload::popular_from_catalog(
          *pop.catalog, config.workload_top_n, pop.lure_queries),
      injector.get(),
      {}};
  std::vector<agents::PeerSpec> churnable = crawler_step(setup);
  auto& crawlers = setup.crawlers;
  if (injector) {
    for (auto& c : crawlers) c->set_fault_injector(injector.get());
  }
  if (record_sink != nullptr && crawlers.size() == 1) {
    crawlers[0]->set_record_sink(record_sink);
  }

  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ churn_salt;
  agents::ChurnDriver churn(net, std::move(churnable), churn_cfg);
  churn.start();
  for (auto& c : crawlers) c->start();
  std::unique_ptr<fault::CrashDriver> crash_driver;
  if (injector) {
    crash_driver = std::make_unique<fault::CrashDriver>(net, churn, *injector);
    crash_driver->start(study_end(config.crawl));
  }

  obs::TimeSeries series = run_study_loop(
      net, config.crawl, config.timeseries, network, [&crawlers] {
        ProgressCounters c;
        for (const auto& cr : crawlers) {
          const auto& s = cr->stats();
          c.responses += s.responses;
          c.degraded +=
              s.downloads_failed + s.downloads_abandoned + s.scan_timeouts;
        }
        return c;
      });

  OBS_SPAN("study.finalize");
  StudyResult result;
  result.timeseries = std::move(series);
  for (auto& c : crawlers) {
    c->finalize();
    auto records = c->take_records();
    result.records.insert(result.records.end(),
                          std::make_move_iterator(records.begin()),
                          std::make_move_iterator(records.end()));
    result.crawl_stats += c->stats();
  }
  if (crawlers.size() > 1) {
    std::stable_sort(result.records.begin(), result.records.end(),
                     [](const crawler::ResponseRecord& a,
                        const crawler::ResponseRecord& b) { return a.at < b.at; });
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      result.records[i].id = i + 1;
    }
    if (record_sink != nullptr) {
      for (const auto& rec : result.records) record_sink->on_record(rec);
    }
  }
  result.strain_catalog = pop.strain_catalog;
  result.events_executed = net.engine().executed();
  result.messages_delivered = net.messages_delivered();
  result.bytes_delivered = net.bytes_delivered();
  result.churn_joins = churn.joins();
  result.churn_leaves = churn.leaves();
  if (injector) {
    result.faults_enabled = true;
    result.fault_counters = injector->counters();
  }
  result.metrics = obs::MetricsRegistry::global().snapshot();
  return result;
}

// Order-dependent field mixer for config_hash: every field is folded
// through splitmix64, so any single-field change flips the digest. The
// digest is stable across platforms and standard libraries (no std::hash).
class ConfigHasher {
 public:
  void u64(std::uint64_t v) {
    state_ ^= v;
    state_ = util::splitmix64(state_);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void dur(sim::SimDuration d) { u64(static_cast<std::uint64_t>(d.count_ms())); }
  void str(std::string_view s) {
    u64(s.size());
    for (unsigned char c : s) u64(c);
  }
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0x70327063'6f6e6667ull;  // "p2pc" "onfg"
};

inline void hash_corpus(ConfigHasher& h, const files::CorpusConfig& c) {
  h.u64(c.seed);
  h.u64(c.num_titles);
  h.f64(c.zipf_exponent);
  h.f64(c.frac_audio);
  h.f64(c.frac_video);
  h.f64(c.frac_executable);
  h.f64(c.frac_archive);
  h.f64(c.frac_image);
  h.f64(c.frac_document);
}

inline void hash_churn(ConfigHasher& h, const agents::ChurnConfig& c) {
  h.dur(c.mean_session);
  h.dur(c.mean_offline);
  h.f64(c.initial_online_override);
  h.u64(c.seed);
}

inline void hash_crawl(ConfigHasher& h, const crawler::CrawlConfig& c) {
  h.dur(c.duration);
  h.dur(c.query_interval);
  h.dur(c.warmup);
  h.u64(static_cast<std::uint64_t>(c.max_download_attempts));
  h.u64(c.query_ttl);
  h.u64(c.dynamic_querying ? 1 : 0);
  h.u64(c.dynamic_target_results);
  h.dur(c.dynamic_probe_interval);
  h.u64(c.vantage_ip.value());
  h.u64(c.seed);
  // Folded only when non-default so digests of pre-existing fault-free
  // configs (and the traces keyed on them) are unchanged.
  if (c.fetch.active()) {
    h.str("fetch");
    h.dur(c.fetch.fetch_timeout);
    h.dur(c.fetch.retry_backoff);
    h.dur(c.fetch.retry_backoff_max);
    h.u64(c.fetch.breaker_threshold);
    h.dur(c.fetch.breaker_cooldown);
  }
}

inline void hash_faults(ConfigHasher& h, const fault::FaultSpec& f,
                        std::uint64_t fault_seed) {
  // Same back-compat rule as the fetch policy above.
  if (!f.enabled() && fault_seed == 0) return;
  h.str("faults");
  h.f64(f.message_loss);
  h.f64(f.message_delay);
  h.dur(f.message_delay_max);
  h.f64(f.message_duplicate);
  h.f64(f.payload_corrupt);
  h.f64(f.crashes_per_hour);
  h.dur(f.crash_downtime);
  h.f64(f.download_stall);
  h.f64(f.scan_timeout);
  h.u64(fault_seed);
}

inline void hash_timeseries(ConfigHasher& h, const obs::TimeSeriesConfig& t) {
  // Same back-compat rule as the fetch policy / faults: digests of
  // pre-existing configs (and the traces keyed on them) are unchanged.
  // An enabled series changes what a study result and its persisted trace
  // contain, so caches must not serve across the change.
  if (!t.enabled()) return;
  h.str("timeseries");
  h.dur(t.window);
  h.u64(t.max_windows);
}

inline void hash_sharded(ConfigHasher& h, std::size_t shards,
                         bool soa_capacity) {
  // Each model is a different byte stream, so traces from one model must
  // never satisfy a request for another. Only the *marker* is folded, never
  // the count: --shards 4 must produce the same header hash as --shards 1
  // (or 0, which means 1) for the byte-identity guarantee. The marker is
  // folded at every shard count, so caches recorded by the retired serial
  // model (which folded none) are rejected as stale; both markers differ
  // from the pre-legacy-port "sharded" marker too.
  h.str(shards > 0 && soa_capacity ? "sharded-soa" : "sharded-legacy");
}

}  // namespace p2p::core::internal
