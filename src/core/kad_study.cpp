#include "core/kad_study.h"

#include <algorithm>
#include <memory>

#include "core/study_internal.h"
#include "obs/metrics.h"

namespace p2p::core {

namespace {
using internal::ConfigHasher;
using internal::hash_churn;
using internal::hash_corpus;
using internal::hash_crawl;
using internal::hash_faults;
using internal::hash_timeseries;

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
  return internal::run_study<crawler::KadCrawler>(
      config, "kad", /*shards=*/1, 0x6adu, record_sink,
      [&](sim::Network& net) {
        return agents::build_kad_population(net, config.population);
      },
      [&](auto& setup) {
        auto& pop = setup.pop;
        // Ground-truth denominators for the coverage analysis: how many
        // infected users exist, and how many vantages watched for them.
        // Persisted in the metrics snapshot, so a replayed trace reproduces
        // the same coverage.
        auto& registry = obs::MetricsRegistry::global();
        registry.counter("kad.population.infected_users")
            .add(static_cast<std::uint64_t>(pop.infected_hosts.size()));
        registry.counter("kad.honeypot.vantages")
            .add(static_cast<std::uint64_t>(config.honeypots));

        // Honeypot bait: the most popular catalog titles — the same head of
        // the popularity curve the poisoners target.
        crawler::KadHoneypotConfig honeypots;
        honeypots.vantages = config.honeypots;
        honeypots.malicious_digests = pop.malicious_digests;
        std::size_t bait_count = std::min(config.honeypot_bait, pop.catalog->size());
        for (std::size_t rank = 0; rank < bait_count; ++rank) {
          auto content = pop.catalog->content(rank);
          honeypots.bait.push_back(
              kad::KadShare{content, "/shared/" + content->name()});
        }

        crawler::CrawlConfig crawl_cfg = config.crawl;
        crawl_cfg.seed = config.seed ^ 0x6ad4u;
        setup.crawlers.push_back(std::make_unique<crawler::KadCrawler>(
            setup.net, pop.host_cache, pop.server_cache, std::move(setup.workload),
            setup.scanner, crawl_cfg, std::move(honeypots)));
        return std::move(pop.user_specs);
      });
}

}  // namespace p2p::core
