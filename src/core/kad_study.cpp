#include "core/kad_study.h"

#include <memory>

#include "core/study_internal.h"
#include "crawler/workload.h"
#include "fault/chaos.h"
#include "malware/scanner.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace p2p::core {

namespace {
using internal::ConfigHasher;
using internal::ProgressCounters;
using internal::hash_churn;
using internal::hash_corpus;
using internal::hash_crawl;
using internal::hash_faults;
using internal::hash_timeseries;
using internal::run_study_loop;

void hash_kad(ConfigHasher& h, const kad::KadConfig& c) {
  h.str(c.alias);
  h.u64(c.k);
  h.u64(c.alpha);
  h.u64(c.stale_after_failures);
  h.u64(c.bootstrap_contacts);
  h.u64(c.publish_keywords);
  h.u64(c.store_capacity);
  h.u64(c.reply_entries);
  h.dur(c.republish_interval);
  h.dur(c.lookup_timeout);
  h.dur(c.search_window);
  h.dur(c.download_timeout);
  h.u64(c.server_min_results);
}
}  // namespace

KadStudyConfig kad_standard() {
  KadStudyConfig cfg;
  cfg.seed = 2008;
  cfg.population.servers = 1;
  cfg.population.users = 240;
  cfg.population.infected_fraction = 0.08;
  cfg.churn.mean_session = sim::SimDuration::hours(4);
  cfg.churn.mean_offline = sim::SimDuration::hours(6);
  cfg.crawl.duration = sim::SimDuration::days(30);
  cfg.crawl.query_interval = sim::SimDuration::seconds(600);
  return cfg;
}

KadStudyConfig kad_quick() {
  KadStudyConfig cfg = kad_standard();
  cfg.population.users = 100;
  cfg.population.corpus.num_titles = 600;
  cfg.crawl.duration = sim::SimDuration::hours(8);
  cfg.crawl.query_interval = sim::SimDuration::seconds(180);
  cfg.workload_top_n = 80;
  return cfg;
}

KadStudyConfig kad_longhaul() {
  KadStudyConfig cfg = kad_standard();
  cfg.population.users = 60;
  cfg.population.corpus.num_titles = 600;
  cfg.crawl.duration = sim::SimDuration::days(70);
  cfg.crawl.query_interval = sim::SimDuration::seconds(1800);
  cfg.workload_top_n = 80;
  return cfg;
}

void apply_faults(KadStudyConfig& config, const fault::FaultSpec& spec,
                  std::uint64_t fault_seed) {
  if (!spec.enabled()) return;
  config.faults = spec;
  config.fault_seed = fault_seed;
  config.crawl.fetch = crawler::resilient_fetch_policy();
}

std::uint64_t config_hash(const KadStudyConfig& config) {
  ConfigHasher h;
  h.str("kad");
  h.u64(config.seed);
  const auto& p = config.population;
  h.u64(p.seed);
  h.u64(p.servers);
  h.u64(p.users);
  h.f64(p.infected_fraction);
  h.f64(p.nat_fraction);
  h.u64(p.shares_min);
  h.u64(p.shares_max);
  h.u64(p.poison_paths_min);
  h.u64(p.poison_paths_max);
  h.u64(p.poison_rank_limit);
  hash_corpus(h, p.corpus);
  hash_kad(h, p.node_config);
  hash_churn(h, config.churn);
  hash_crawl(h, config.crawl);
  h.u64(config.workload_top_n);
  h.u64(config.honeypots);
  h.u64(config.honeypot_bait);
  hash_faults(h, config.faults, config.fault_seed);
  hash_timeseries(h, config.timeseries);
  // Model marker: the study runs on the sharded Network. Caches recorded by
  // the retired serial KAD driver (which folded no marker) are stale.
  h.str("sharded-kad");
  return h.digest();
}

StudyResult run_kad_study(const KadStudyConfig& config,
                          crawler::RecordSink* record_sink) {
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed);
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.enabled()) {
    std::uint64_t fault_seed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    injector = std::make_unique<fault::FaultInjector>(config.faults, fault_seed);
    net.set_fault_hook(injector.get());
  }
  auto pop = [&] {
    OBS_SPAN("study.setup");
    return agents::build_kad_population(net, config.population);
  }();
  auto scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  auto workload = crawler::QueryWorkload::popular_from_catalog(
      *pop.catalog, config.workload_top_n, pop.lure_queries);

  // Ground-truth denominators for the coverage analysis: how many infected
  // users exist, and how many vantages watched for them. Persisted in the
  // metrics snapshot, so a replayed trace reproduces the same coverage.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("kad.population.infected_users")
      .add(static_cast<std::uint64_t>(pop.infected_hosts.size()));
  registry.counter("kad.honeypot.vantages")
      .add(static_cast<std::uint64_t>(config.honeypots));

  // Honeypot bait: the most popular catalog titles — the same head of the
  // popularity curve the poisoners target.
  crawler::KadHoneypotConfig honeypots;
  honeypots.vantages = config.honeypots;
  honeypots.malicious_digests = pop.malicious_digests;
  std::size_t bait_count = std::min(config.honeypot_bait, pop.catalog->size());
  for (std::size_t rank = 0; rank < bait_count; ++rank) {
    auto content = pop.catalog->content(rank);
    honeypots.bait.push_back(kad::KadShare{content, "/shared/" + content->name()});
  }

  crawler::CrawlConfig crawl_cfg = config.crawl;
  crawl_cfg.seed = config.seed ^ 0x6ad4u;
  crawler::KadCrawler crawl(net, pop.host_cache, pop.server_cache,
                            std::move(workload), scanner, crawl_cfg,
                            std::move(honeypots));
  if (record_sink != nullptr) crawl.set_record_sink(record_sink);
  if (injector) crawl.set_fault_injector(injector.get());

  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ 0x6adu;
  agents::ChurnDriver churn(net, std::move(pop.user_specs), churn_cfg);
  churn.start();
  crawl.start();
  std::unique_ptr<fault::CrashDriver> crash_driver;
  if (injector) {
    crash_driver = std::make_unique<fault::CrashDriver>(net, churn, *injector);
    crash_driver->start(internal::study_end(config.crawl));
  }

  obs::TimeSeries series = run_study_loop(
      net, config.crawl, config.timeseries, "kad", [&crawl] {
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

}  // namespace p2p::core
