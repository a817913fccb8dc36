#include "core/study.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/shard_study.h"
#include "core/study_internal.h"
#include "obs/profile.h"
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

namespace {
using internal::ConfigHasher;
using internal::hash_churn;
using internal::hash_corpus;
using internal::hash_crawl;
using internal::hash_faults;
using internal::hash_sharded;
using internal::hash_timeseries;

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

StudyResult run_limewire_study(const LimewireStudyConfig& config,
                               crawler::RecordSink* record_sink) {
  if (config.shards > 0 && config.soa_capacity) {
    return run_limewire_study_sharded(config, record_sink);
  }
  return internal::run_study<crawler::LimewireCrawler>(
      config, "limewire", config.shards, 0xc4u, record_sink,
      [&](sim::Network& net) {
        return agents::build_gnutella_population(net, config.population);
      },
      [&](auto& setup) {
        // One or more instrumented clients on distinct vantage addresses.
        std::size_t vantage_count = std::max<std::size_t>(1, config.crawler_count);
        if (vantage_count > 1 && setup.injector != nullptr) {
          // The injector's crawler-side fault stream (stalls, scan timeouts)
          // is a single rng; two crawler entities on different shards would
          // race it. Multi-vantage runs are fine fault-free.
          throw std::invalid_argument(
              "run_limewire_study: crawler_count > 1 cannot be combined with "
              "faults");
        }
        for (std::size_t v = 0; v < vantage_count; ++v) {
          crawler::CrawlConfig crawl_cfg = config.crawl;
          crawl_cfg.seed = config.seed ^ (0xc4a31u + v * 0x9e37u);
          crawl_cfg.vantage_ip =
              util::Ipv4(156, 56, 1, static_cast<std::uint8_t>(10 + v));
          setup.crawlers.push_back(std::make_unique<crawler::LimewireCrawler>(
              setup.net, setup.pop.host_cache, setup.workload, setup.scanner,
              crawl_cfg));
        }
        return std::move(setup.pop.leaf_specs);
      });
}

StudyResult run_openft_study(const OpenFtStudyConfig& config,
                             crawler::RecordSink* record_sink) {
  if (config.shards > 0 && config.soa_capacity) {
    return run_openft_study_sharded(config, record_sink);
  }
  return internal::run_study<crawler::OpenFtCrawler>(
      config, "openft", config.shards, 0x0f7u, record_sink,
      [&](sim::Network& net) {
        return agents::build_openft_population(net, config.population);
      },
      [&](auto& setup) {
        crawler::CrawlConfig crawl_cfg = config.crawl;
        crawl_cfg.seed = config.seed ^ 0x0f7c4u;
        setup.crawlers.push_back(std::make_unique<crawler::OpenFtCrawler>(
            setup.net, setup.pop.host_cache, std::move(setup.workload),
            setup.scanner, crawl_cfg));
        // The super-spreader is a dedicated malicious server: permanently
        // online, outside the churn process (this is what makes the paper's
        // "67% of malicious responses from a single host" stable over a
        // month).
        const auto& users = setup.pop.user_specs;
        std::vector<agents::PeerSpec> churnable;
        churnable.reserve(users.size());
        for (std::size_t i = 0; i < users.size(); ++i) {
          if (i == setup.pop.superspreader_index) {
            setup.net.add_node(users[i].make(), users[i].profile);
          } else {
            churnable.push_back(users[i]);
          }
        }
        return churnable;
      });
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
