#include "compose.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "agents/churn.h"
#include "crawler/kad_crawler.h"
#include "crawler/limewire_crawler.h"
#include "crawler/openft_crawler.h"
#include "crawler/workload.h"
#include "malware/scanner.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/sharded_engine.h"

namespace p2pbench {

namespace agents = p2p::agents;
namespace crawler = p2p::crawler;
namespace malware = p2p::malware;
namespace obs = p2p::obs;
namespace sim = p2p::sim;
namespace util = p2p::util;

namespace {

using Clock = std::chrono::steady_clock;

double status_kib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

double rusage_s(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) return 0.0;
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// The drivers' executor selection (study.cpp): spawned shard workers
// record into the calling thread's registry.
sim::ShardingConfig sharding_for(std::size_t shards) {
  sim::ShardingConfig sharding;
  sharding.shards = shards;
  if (shards > 0) {
    sharding.worker_context = [&reg = obs::MetricsRegistry::global()] {
      return std::static_pointer_cast<void>(
          std::make_shared<obs::ScopedMetricsRegistry>(reg));
    };
  }
  return sharding;
}

// The drivers' run_until target (core/study_internal.h: study_end).
util::SimTime study_end(const crawler::CrawlConfig& crawl) {
  return util::SimTime::zero() + crawl.warmup + crawl.duration +
         util::SimDuration::minutes(10);
}

template <typename Config>
void require_composable(const Config& config) {
  if (config.faults.enabled() || config.timeseries.enabled()) {
    throw std::invalid_argument(
        "compose_study: faulted or time-series studies are not composed");
  }
}

// Population build with the probe's peer count and RSS growth.
template <typename Build>
auto build_population(Ledger* ledger, std::uint64_t id, StudyProbe& probe,
                      Build&& build) {
  Ledger::Span span(ledger, "agents.build_population", id);
  double rss0 = current_rss_kib();
  auto pop = build();
  probe.build_rss_kib = current_rss_kib() - rss0;
  return pop;
}

void run_engine(sim::Network& net, const crawler::CrawlConfig& crawl,
                Ledger* ledger, std::uint64_t id, StudyProbe& probe) {
  Ledger::Span span(ledger, "sim.run", id);
  probe.shards = 0;
  auto* sharded = dynamic_cast<sim::ShardedEngine*>(&net.engine());
  if (sharded != nullptr) probe.shards = sharded->shard_count();
  // Process CPU when shard workers run beside this thread; thread CPU
  // otherwise, so concurrent sweep tasks do not count each other.
  bool whole_process = probe.shards > 1;
  double cpu0 = whole_process ? process_cpu_s() : thread_cpu_s();
  auto t0 = Clock::now();
  net.engine().run_until(study_end(crawl));
  if (net.sharded()) net.refresh_gauges();
  probe.run_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  probe.run_cpu_s = (whole_process ? process_cpu_s() : thread_cpu_s()) - cpu0;
  if (sharded != nullptr) {
    auto stats = sharded->stats();
    probe.rounds = stats.rounds;
    probe.cross_shard_messages = stats.cross_shard_messages;
  }
}

template <typename Churn>
void fill_result(core::StudyResult& result, sim::Network& net, const Churn& churn) {
  result.events_executed = net.engine().executed();
  result.messages_delivered = net.messages_delivered();
  result.bytes_delivered = net.bytes_delivered();
  result.churn_joins = churn.joins();
  result.churn_leaves = churn.leaves();
  result.metrics = obs::MetricsRegistry::global().snapshot();
}

core::StudyResult compose_limewire(const core::LimewireStudyConfig& config,
                                   std::uint64_t id, Ledger* ledger,
                                   StudyProbe& probe) {
  require_composable(config);
  if (config.crawler_count > 1 || (config.shards > 0 && config.soa_capacity)) {
    throw std::invalid_argument(
        "compose_study: multi-vantage and SoA studies are not composed");
  }
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed, sharding_for(config.shards));
  auto pop = build_population(ledger, id, probe, [&] {
    return agents::build_gnutella_population(net, config.population);
  });
  probe.peers = pop.ultrapeer_ids.size() + pop.leaf_specs.size();
  std::shared_ptr<malware::Scanner> scanner;
  {
    Ledger::Span span(ledger, "malware.scanner_build", id);
    scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  }
  std::unique_ptr<crawler::LimewireCrawler> crawl;
  {
    Ledger::Span span(ledger, "crawler.setup", id);
    auto workload = crawler::QueryWorkload::popular_from_catalog(
        *pop.catalog, config.workload_top_n, pop.lure_queries);
    crawler::CrawlConfig crawl_cfg = config.crawl;
    crawl_cfg.seed = config.seed ^ 0xc4a31u;
    crawl_cfg.vantage_ip = util::Ipv4(156, 56, 1, 10);
    crawl = std::make_unique<crawler::LimewireCrawler>(net, pop.host_cache, workload,
                                                       scanner, crawl_cfg);
  }
  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ 0xc4u;
  std::unique_ptr<agents::ChurnDriver> churn;
  {
    Ledger::Span span(ledger, "agents.churn_start", id);
    churn = std::make_unique<agents::ChurnDriver>(net, std::move(pop.leaf_specs),
                                                  churn_cfg);
    churn->start();
  }
  {
    Ledger::Span span(ledger, "crawler.start", id);
    crawl->start();
  }
  run_engine(net, config.crawl, ledger, id, probe);

  core::StudyResult result;
  {
    Ledger::Span span(ledger, "crawler.finalize", id);
    crawl->finalize();
    result.records = crawl->take_records();
  }
  result.crawl_stats = crawl->stats();
  result.strain_catalog = pop.strain_catalog;
  fill_result(result, net, *churn);
  return result;
}

core::StudyResult compose_openft(const core::OpenFtStudyConfig& config,
                                 std::uint64_t id, Ledger* ledger,
                                 StudyProbe& probe) {
  require_composable(config);
  if (config.shards > 0 && config.soa_capacity) {
    throw std::invalid_argument("compose_study: SoA studies are not composed");
  }
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed, sharding_for(config.shards));
  auto pop = build_population(ledger, id, probe, [&] {
    return agents::build_openft_population(net, config.population);
  });
  probe.peers = pop.search_node_ids.size() + pop.index_node_ids.size() +
                pop.user_specs.size();
  std::shared_ptr<malware::Scanner> scanner;
  {
    Ledger::Span span(ledger, "malware.scanner_build", id);
    scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  }
  std::unique_ptr<crawler::OpenFtCrawler> crawl;
  {
    Ledger::Span span(ledger, "crawler.setup", id);
    auto workload = crawler::QueryWorkload::popular_from_catalog(
        *pop.catalog, config.workload_top_n, pop.lure_queries);
    crawler::CrawlConfig crawl_cfg = config.crawl;
    crawl_cfg.seed = config.seed ^ 0x0f7c4u;
    crawl = std::make_unique<crawler::OpenFtCrawler>(net, pop.host_cache,
                                                     std::move(workload), scanner,
                                                     crawl_cfg);
  }
  std::unique_ptr<agents::ChurnDriver> churn;
  {
    Ledger::Span span(ledger, "agents.churn_start", id);
    // The super-spreader stays online outside the churn process.
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
    churn = std::make_unique<agents::ChurnDriver>(net, std::move(churnable), churn_cfg);
    churn->start();
  }
  {
    Ledger::Span span(ledger, "crawler.start", id);
    crawl->start();
  }
  run_engine(net, config.crawl, ledger, id, probe);

  core::StudyResult result;
  {
    Ledger::Span span(ledger, "crawler.finalize", id);
    crawl->finalize();
    result.records = crawl->take_records();
  }
  result.crawl_stats = crawl->stats();
  result.strain_catalog = pop.strain_catalog;
  fill_result(result, net, *churn);
  return result;
}

core::StudyResult compose_kad(const core::KadStudyConfig& config, std::uint64_t id,
                              Ledger* ledger, StudyProbe& probe) {
  require_composable(config);
  obs::MetricsRegistry::global().reset();
  sim::Network net(config.seed);
  auto pop = build_population(ledger, id, probe, [&] {
    return agents::build_kad_population(net, config.population);
  });
  probe.peers = pop.server_ids.size() + pop.user_specs.size();
  std::shared_ptr<malware::Scanner> scanner;
  {
    Ledger::Span span(ledger, "malware.scanner_build", id);
    scanner = std::make_shared<malware::Scanner>(pop.strain_catalog.strains);
  }
  std::unique_ptr<crawler::KadCrawler> crawl;
  {
    Ledger::Span span(ledger, "crawler.setup", id);
    auto workload = crawler::QueryWorkload::popular_from_catalog(
        *pop.catalog, config.workload_top_n, pop.lure_queries);
    // Coverage ground truth, recorded where the driver records it.
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("kad.population.infected_users")
        .add(static_cast<std::uint64_t>(pop.infected_hosts.size()));
    registry.counter("kad.honeypot.vantages")
        .add(static_cast<std::uint64_t>(config.honeypots));
    crawler::KadHoneypotConfig honeypots;
    honeypots.vantages = config.honeypots;
    honeypots.malicious_digests = pop.malicious_digests;
    std::size_t bait_count = std::min(config.honeypot_bait, pop.catalog->size());
    for (std::size_t rank = 0; rank < bait_count; ++rank) {
      auto content = pop.catalog->content(rank);
      honeypots.bait.push_back(
          p2p::kad::KadShare{content, "/shared/" + content->name()});
    }
    crawler::CrawlConfig crawl_cfg = config.crawl;
    crawl_cfg.seed = config.seed ^ 0x6ad4u;
    crawl = std::make_unique<crawler::KadCrawler>(
        net, pop.host_cache, pop.server_cache, std::move(workload), scanner,
        crawl_cfg, std::move(honeypots));
  }
  agents::ChurnConfig churn_cfg = config.churn;
  churn_cfg.seed = config.seed ^ 0x6adu;
  std::unique_ptr<agents::ChurnDriver> churn;
  {
    Ledger::Span span(ledger, "agents.churn_start", id);
    churn = std::make_unique<agents::ChurnDriver>(net, std::move(pop.user_specs),
                                                  churn_cfg);
    churn->start();
  }
  {
    Ledger::Span span(ledger, "crawler.start", id);
    crawl->start();
  }
  run_engine(net, config.crawl, ledger, id, probe);

  core::StudyResult result;
  {
    Ledger::Span span(ledger, "crawler.finalize", id);
    crawl->finalize();
    result.records = crawl->take_records();
  }
  result.crawl_stats = crawl->stats();
  result.strain_catalog = pop.strain_catalog;
  fill_result(result, net, *churn);
  return result;
}

}  // namespace

core::StudyResult compose_study(const sweep::StudyTask& task, std::uint64_t study_id,
                                Ledger* ledger, StudyProbe& probe) {
  Ledger::Span span(ledger, "core.study", study_id);
  switch (task.network) {
    case sweep::NetworkKind::kLimewire:
      return compose_limewire(task.limewire, study_id, ledger, probe);
    case sweep::NetworkKind::kOpenFt:
      return compose_openft(task.openft, study_id, ledger, probe);
    case sweep::NetworkKind::kKad:
      return compose_kad(task.kad, study_id, ledger, probe);
  }
  throw std::logic_error("unknown network kind");
}

double current_rss_kib() { return status_kib("VmRSS"); }

double peak_rss_mib() { return status_kib("VmHWM") / 1024.0; }

double process_cpu_s() { return rusage_s(RUSAGE_SELF); }

double thread_cpu_s() { return rusage_s(RUSAGE_THREAD); }

}  // namespace p2pbench
