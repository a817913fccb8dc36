#include "core/study.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/rng.h"

#include "core/shard_study.h"
#include "core/study_internal.h"
#include "crawler/workload.h"
#include "fault/chaos.h"
#include "malware/scanner.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/timeseries.h"
#include "sim/network.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace p2p::core {

LimewireStudyConfig limewire_standard() {
  LimewireStudyConfig cfg;
  cfg.seed = 2006;
  cfg.population.ultrapeers = 36;
  cfg.population.leaves = 700;
  cfg.population.infected_fraction = 0.12;
  cfg.population.nat_fraction_infected = 0.36;
  cfg.churn.mean_session = sim::SimDuration::hours(4);
  cfg.churn.mean_offline = sim::SimDuration::hours(6);
  cfg.crawl.duration = sim::SimDuration::days(30);
  cfg.crawl.query_interval = sim::SimDuration::seconds(600);
  return cfg;
}

LimewireStudyConfig limewire_quick() {
  LimewireStudyConfig cfg = limewire_standard();
  cfg.population.ultrapeers = 10;
  cfg.population.leaves = 160;
  cfg.population.corpus.num_titles = 600;
  cfg.crawl.duration = sim::SimDuration::hours(8);
  cfg.crawl.query_interval = sim::SimDuration::seconds(180);
  cfg.workload_top_n = 80;
  return cfg;
}

OpenFtStudyConfig openft_standard() {
  OpenFtStudyConfig cfg;
  cfg.seed = 2007;
  cfg.population.search_nodes = 12;
  cfg.population.users = 280;
  cfg.population.infected_fraction = 0.055;
  cfg.population.infected_paths_min = 1;
  cfg.population.infected_paths_max = 1;
  cfg.population.superspreader_paths = 28;
  cfg.population.superspreader_rank_stride = 11;
  cfg.population.superspreader_rank_offset = 14;
  cfg.churn.mean_session = sim::SimDuration::hours(4);
  cfg.churn.mean_offline = sim::SimDuration::hours(6);
  cfg.crawl.duration = sim::SimDuration::days(30);
  cfg.crawl.query_interval = sim::SimDuration::seconds(600);
  return cfg;
}

OpenFtStudyConfig openft_quick() {
  OpenFtStudyConfig cfg = openft_standard();
  cfg.population.search_nodes = 6;
  cfg.population.users = 100;
  cfg.population.corpus.num_titles = 600;
  cfg.crawl.duration = sim::SimDuration::hours(8);
  cfg.crawl.query_interval = sim::SimDuration::seconds(180);
  cfg.workload_top_n = 80;
  return cfg;
}

void apply_faults(LimewireStudyConfig& config, const fault::FaultSpec& spec,
                  std::uint64_t fault_seed) {
  if (!spec.enabled()) return;
  config.faults = spec;
  config.fault_seed = fault_seed;
  config.crawl.fetch = crawler::resilient_fetch_policy();
}

void apply_faults(OpenFtStudyConfig& config, const fault::FaultSpec& spec,
                  std::uint64_t fault_seed) {
  if (!spec.enabled()) return;
  config.faults = spec;
  config.fault_seed = fault_seed;
  config.crawl.fetch = crawler::resilient_fetch_policy();
}

namespace {
using internal::ConfigHasher;
using internal::ProgressCounters;
using internal::hash_churn;
using internal::hash_corpus;
using internal::hash_crawl;
using internal::hash_faults;
using internal::hash_sharded;
using internal::hash_timeseries;
using internal::run_study_loop;

void hash_servent(ConfigHasher& h, const gnutella::ServentConfig& c) {
  h.u64(c.ultrapeer ? 1 : 0);
  h.u64(c.query_ttl);
  h.u64(c.max_ttl);
  h.u64(c.up_degree);
  h.u64(c.leaf_slots);
  h.u64(c.leaf_up_count);
  h.u64(c.qrt_bits);
  h.u64(c.use_qrp ? 1 : 0);
  h.dur(c.download_timeout);
  h.dur(c.reconnect_delay);
  h.u64(c.pong_fanout);
  h.u64(c.learned_host_max);
  h.u64(c.upload_slots);
  h.dur(c.upload_window);
}

void hash_ft(ConfigHasher& h, const openft::FtConfig& c) {
  h.u64(c.klass);
  h.str(c.alias);
  h.u64(c.parent_count);
  h.u64(c.search_peers);
  h.u64(c.max_children);
  h.u64(c.search_ttl);
  h.u64(c.index_parents);
  h.dur(c.stats_interval);
  h.dur(c.search_window);
  h.dur(c.download_timeout);
  h.dur(c.reconnect_delay);
}

}  // namespace

std::uint64_t config_hash(const LimewireStudyConfig& config) {
  ConfigHasher h;
  h.str("limewire");
  h.u64(config.seed);
  const auto& p = config.population;
  h.u64(p.seed);
  h.u64(p.ultrapeers);
  h.u64(p.leaves);
  h.f64(p.infected_fraction);
  h.f64(p.nat_fraction_clean);
  h.f64(p.nat_fraction_infected);
  h.f64(p.private_advertise_given_nat);
  h.u64(p.shares_min);
  h.u64(p.shares_max);
  h.u64(p.trojan_aliases_min);
  h.u64(p.trojan_aliases_max);
  h.u64(p.polymorphic_jitter);
  h.dur(p.organic_query_interval);
  hash_corpus(h, p.corpus);
  hash_servent(h, p.leaf_config);
  hash_servent(h, p.ultrapeer_config);
  hash_churn(h, config.churn);
  hash_crawl(h, config.crawl);
  h.u64(config.workload_top_n);
  h.u64(config.crawler_count);
  hash_faults(h, config.faults, config.fault_seed);
  hash_timeseries(h, config.timeseries);
  hash_sharded(h, config.shards, config.soa_capacity);
  return h.digest();
}

std::uint64_t config_hash(const OpenFtStudyConfig& config) {
  ConfigHasher h;
  h.str("openft");
  h.u64(config.seed);
  const auto& p = config.population;
  h.u64(p.seed);
  h.u64(p.search_nodes);
  h.u64(p.index_nodes);
  h.u64(p.users);
  h.f64(p.infected_fraction);
  h.f64(p.nat_fraction);
  h.u64(p.shares_min);
  h.u64(p.shares_max);
  h.u64(p.infected_paths_min);
  h.u64(p.infected_paths_max);
  h.u64(p.enable_superspreader ? 1 : 0);
  h.u64(p.superspreader_paths);
  h.u64(p.superspreader_rank_stride);
  h.u64(p.superspreader_rank_offset);
  hash_corpus(h, p.corpus);
  hash_ft(h, p.user_config);
  hash_ft(h, p.search_config);
  hash_churn(h, config.churn);
  hash_crawl(h, config.crawl);
  h.u64(config.workload_top_n);
  hash_faults(h, config.faults, config.fault_seed);
  hash_timeseries(h, config.timeseries);
  hash_sharded(h, config.shards, config.soa_capacity);
  return h.digest();
}

namespace {

/// Executor partition for the full-fidelity studies: spawned shard workers
/// record into the study's registry via a thread-scoped guard.
sim::ShardingConfig study_sharding(std::size_t shards) {
  sim::ShardingConfig sharding;
  sharding.shards = shards;
  sharding.worker_context = [&reg = obs::MetricsRegistry::global()] {
    return std::static_pointer_cast<void>(
        std::make_shared<obs::ScopedMetricsRegistry>(reg));
  };
  return sharding;
}

}  // namespace

StudyResult run_limewire_study(const LimewireStudyConfig& config,
                               crawler::RecordSink* record_sink) {
  if (config.shards > 0 && config.soa_capacity) {
    return run_limewire_study_sharded(config, record_sink);
  }
  // Each run owns the registry window: reset here, snapshot at the end.
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed, study_sharding(config.shards));
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    std::uint64_t fault_seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    injector = std::make_unique<fault::FaultInjector>(config.faults, fault_seed);
    net.set_fault_hook(injector.get());
  }
  auto pop = [&] {
    OBS_SPAN("study.setup");
    return agents::build_gnutella_population(net, config.population);
  }();
  auto scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  auto workload = crawler::QueryWorkload::popular_from_catalog(
      *pop.catalog, config.workload_top_n, pop.lure_queries);

  // One or more instrumented clients on distinct vantage addresses.
  std::size_t vantage_count = std::max<std::size_t>(1, config.crawler_count);
  if (vantage_count > 1 && injector) {
    // The injector's crawler-side fault stream (stalls, scan timeouts) is a
    // single rng; two crawler entities on different shards would race it.
    // Multi-vantage runs are fine fault-free.
    throw std::invalid_argument(
        "run_limewire_study: crawler_count > 1 cannot be combined with "
        "faults");
  }
  std::vector<std::unique_ptr<crawler::LimewireCrawler>> crawlers;
  for (std::size_t v = 0; v < vantage_count; ++v) {
    crawler::CrawlConfig crawl_cfg = config.crawl;
    crawl_cfg.seed = config.seed ^ (0xc4a31u + v * 0x9e37u);
    crawl_cfg.vantage_ip = util::Ipv4(156, 56, 1, static_cast<std::uint8_t>(10 + v));
    crawlers.push_back(std::make_unique<crawler::LimewireCrawler>(
        net, pop.host_cache, workload, scanner, crawl_cfg));
    if (injector) crawlers.back()->set_fault_injector(injector.get());
  }

  // With a single vantage the crawler's finalize() streams records into the
  // sink in the exact order they land in result.records; the merged
  // multi-vantage stream is re-sorted below, so it is streamed after the
  // merge instead.
  if (record_sink != nullptr && vantage_count == 1) {
    crawlers[0]->set_record_sink(record_sink);
  }

  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ 0xc4u;
  agents::ChurnDriver churn(net, std::move(pop.leaf_specs), churn_cfg);
  churn.start();
  for (auto& c : crawlers) c->start();
  std::unique_ptr<fault::CrashDriver> crash_driver;
  if (injector) {
    crash_driver = std::make_unique<fault::CrashDriver>(net, churn, *injector);
    crash_driver->start(internal::study_end(config.crawl));
  }

  obs::TimeSeries series = run_study_loop(
      net, config.crawl, config.timeseries, "limewire", [&crawlers] {
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
  if (vantage_count > 1) {
    // Merge the vantage logs into one time-ordered stream with fresh ids.
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

StudyResult run_openft_study(const OpenFtStudyConfig& config,
                             crawler::RecordSink* record_sink) {
  if (config.shards > 0 && config.soa_capacity) {
    return run_openft_study_sharded(config, record_sink);
  }
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed, study_sharding(config.shards));
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    std::uint64_t fault_seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    injector = std::make_unique<fault::FaultInjector>(config.faults, fault_seed);
    net.set_fault_hook(injector.get());
  }
  auto pop = [&] {
    OBS_SPAN("study.setup");
    return agents::build_openft_population(net, config.population);
  }();
  auto scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  auto workload = crawler::QueryWorkload::popular_from_catalog(
      *pop.catalog, config.workload_top_n, pop.lure_queries);

  crawler::CrawlConfig crawl_cfg = config.crawl;
  crawl_cfg.seed = config.seed ^ 0x0f7c4u;
  crawler::OpenFtCrawler crawl(net, pop.host_cache, std::move(workload), scanner,
                               crawl_cfg);
  if (record_sink != nullptr) crawl.set_record_sink(record_sink);
  if (injector) crawl.set_fault_injector(injector.get());

  // The super-spreader is a dedicated malicious server: permanently online,
  // outside the churn process (this is what makes the paper's "67% of
  // malicious responses from a single host" stable over a month).
  std::vector<agents::PeerSpec> churnable;
  churnable.reserve(pop.user_specs.size());
  for (std::size_t i = 0; i < pop.user_specs.size(); ++i) {
    if (i == pop.superspreader_index) {
      net.add_node(pop.user_specs[i].make(), pop.user_specs[i].profile);
    } else {
      churnable.push_back(pop.user_specs[i]);
    }
  }

  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ 0x0f7u;
  agents::ChurnDriver churn(net, std::move(churnable), churn_cfg);
  churn.start();
  crawl.start();
  std::unique_ptr<fault::CrashDriver> crash_driver;
  if (injector) {
    crash_driver = std::make_unique<fault::CrashDriver>(net, churn, *injector);
    crash_driver->start(internal::study_end(config.crawl));
  }

  obs::TimeSeries series = run_study_loop(
      net, config.crawl, config.timeseries, "openft", [&crawl] {
        ProgressCounters c;
        const auto& s = crawl.stats();
        c.responses = s.responses;
        c.degraded =
            s.downloads_failed + s.downloads_abandoned + s.scan_timeouts;
        return c;
      });

  OBS_SPAN("study.finalize");
  crawl.finalize();

  StudyResult result;
  result.timeseries = std::move(series);
  result.records = crawl.take_records();
  result.crawl_stats = crawl.stats();
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

trace::StudySummary study_summary(const StudyResult& result) {
  trace::StudySummary summary;
  summary.events_executed = result.events_executed;
  summary.messages_delivered = result.messages_delivered;
  summary.bytes_delivered = result.bytes_delivered;
  summary.churn_joins = result.churn_joins;
  summary.churn_leaves = result.churn_leaves;
  summary.crawl_stats = result.crawl_stats;
  summary.metrics = result.metrics;
  // Wall-clock histograms (scanner/event timing) vary run to run; a trace
  // must hold only the reproducible subset so identical configs produce
  // byte-identical files. Exports already exclude them by default.
  std::erase_if(summary.metrics.histograms,
                [](const obs::MetricsSnapshot::HistogramSample& h) {
                  return h.wall_clock;
                });
  summary.faults_enabled = result.faults_enabled;
  summary.fault_counters = result.fault_counters;
  summary.timeseries = result.timeseries;
  return summary;
}

void apply_summary(const trace::StudySummary& summary, StudyResult& result) {
  result.events_executed = summary.events_executed;
  result.messages_delivered = summary.messages_delivered;
  result.bytes_delivered = summary.bytes_delivered;
  result.churn_joins = summary.churn_joins;
  result.churn_leaves = summary.churn_leaves;
  result.crawl_stats = summary.crawl_stats;
  result.metrics = summary.metrics;
  result.faults_enabled = summary.faults_enabled;
  result.fault_counters = summary.fault_counters;
  result.timeseries = summary.timeseries;
}

bool save_study_trace(const std::string& path, const StudyResult& result,
                      const trace::TraceHeader& header) {
  OBS_SPAN("trace.save_study");
  trace::TraceWriter writer(path, header);
  for (const auto& rec : result.records) writer.on_record(rec);
  writer.write_summary(study_summary(result));
  writer.close();
  return writer.ok();
}

bool load_study_trace(const std::string& path, StudyResult& result,
                      std::uint64_t expected_config_hash) {
  OBS_SPAN("trace.load_study");
  trace::TraceData data = trace::read_trace_file(path);
  if (!data.ok() || !data.stats.clean()) return false;
  if (expected_config_hash != 0 &&
      data.header.config_hash != expected_config_hash) {
    return false;  // produced by a different config: stale
  }
  if (!data.summary.has_value()) return false;
  result.records = std::move(data.records);
  apply_summary(*data.summary, result);
  return true;
}

}  // namespace p2p::core
