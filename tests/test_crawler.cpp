// Workload and crawler tests, including a miniature end-to-end crawl of a
// hand-built infected network.
#include <gtest/gtest.h>

#include "agents/behavior.h"
#include "crawler/limewire_crawler.h"
#include "crawler/openft_crawler.h"
#include "crawler/workload.h"
#include "malware/catalogs.h"
#include "malware/scanner.h"

namespace p2p::crawler {
namespace {

using sim::SimDuration;
using sim::SimTime;

TEST(QueryWorkload, BuildsFromCatalog) {
  files::CorpusConfig corpus;
  corpus.seed = 9;
  corpus.num_titles = 100;
  files::ContentCatalog catalog(corpus);
  auto workload =
      QueryWorkload::popular_from_catalog(catalog, 20, {"password cracker"});
  EXPECT_EQ(workload.size(), 21u);
  EXPECT_EQ(workload.item(20).category, "lure");
}

TEST(QueryWorkload, SamplesFavorPopular) {
  files::CorpusConfig corpus;
  corpus.seed = 9;
  corpus.num_titles = 100;
  files::ContentCatalog catalog(corpus);
  auto workload = QueryWorkload::popular_from_catalog(catalog, 50, {});
  util::Rng rng(3);
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[workload.sample(rng).text];
  // The most popular work should be sampled far more than a mid-rank one.
  EXPECT_GT(counts[workload.item(0).text], counts[workload.item(30).text]);
}

TEST(QueryWorkload, RejectsEmpty) {
  EXPECT_THROW(QueryWorkload{std::vector<QueryItem>{}}, std::invalid_argument);
}

TEST(LabelStore, DownloadLifecycle) {
  LabelStore store(2);
  EXPECT_TRUE(store.want_download("k"));
  store.mark_pending("k");
  EXPECT_FALSE(store.want_download("k"));  // already pending
  store.mark_failed("k");
  EXPECT_TRUE(store.want_download("k"));  // one attempt left
  store.mark_pending("k");
  store.mark_failed("k");
  EXPECT_FALSE(store.want_download("k"));  // attempts exhausted
}

TEST(LabelStore, LabeledContentNotRedownloaded) {
  LabelStore store;
  store.mark_pending("k");
  store.mark_succeeded("k");
  ContentLabel label;
  label.infected = true;
  store.put("k", label);
  EXPECT_FALSE(store.want_download("k"));
  ASSERT_NE(store.find("k"), nullptr);
  EXPECT_TRUE(store.find("k")->infected);
  EXPECT_EQ(store.find("missing"), nullptr);
}

/// Builds a small Gnutella network with one infected leaf and one honest
/// sharer, plus a crawler, and runs a short crawl.
struct MiniCrawl {
  sim::Network net{31337};
  std::shared_ptr<gnutella::HostCache> cache = std::make_shared<gnutella::HostCache>();
  malware::CalibratedCatalog catalog = malware::limewire_catalog();
  std::shared_ptr<malware::ArtifactStore> artifacts =
      std::make_shared<malware::ArtifactStore>(catalog.strains, 17);
  std::shared_ptr<malware::Scanner> scanner =
      std::make_shared<malware::Scanner>(catalog.strains);

  MiniCrawl() {
    // One ultrapeer.
    gnutella::ServentConfig up_cfg;
    up_cfg.ultrapeer = true;
    auto up_answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto up = std::make_unique<gnutella::Servent>(up_cfg, up_answerer, cache, 100);
    sim::HostProfile up_prof;
    up_prof.ip = util::Ipv4(3, 3, 3, 3);
    up_prof.port = 6346;
    net.add_node(std::move(up), up_prof);
    cache->add({up_prof.ip, up_prof.port});

    // Honest leaf sharing one clean executable.
    gnutella::SharedFileIndex honest;
    util::Bytes clean(9'000, 0x41);
    clean[0] = 'M';
    clean[1] = 'Z';
    honest.add(std::make_shared<const files::FileContent>("photomax setup.exe",
                                                          std::move(clean)));
    gnutella::ServentConfig leaf_cfg;
    auto honest_answerer = std::make_shared<gnutella::IndexAnswerer>(std::move(honest));
    auto honest_leaf =
        std::make_unique<gnutella::Servent>(leaf_cfg, honest_answerer, cache, 101);
    sim::HostProfile honest_prof;
    honest_prof.ip = util::Ipv4(4, 4, 4, 4);
    honest_prof.port = 7000;
    net.add_node(std::move(honest_leaf), honest_prof);

    // Infected leaf echoing every query with strain 0.
    auto infected_answerer = std::make_shared<agents::InfectedAnswerer>(
        artifacts, std::vector<malware::StrainId>{0}, gnutella::SharedFileIndex{},
        102);
    auto infected_leaf =
        std::make_unique<gnutella::Servent>(leaf_cfg, infected_answerer, cache, 103);
    sim::HostProfile infected_prof;
    infected_prof.ip = util::Ipv4(5, 5, 5, 5);
    infected_prof.port = 7001;
    net.add_node(std::move(infected_leaf), infected_prof);
  }
};

TEST(LimewireCrawler, EndToEndLabelsResponses) {
  MiniCrawl m;
  std::vector<QueryItem> queries = {{"photomax", "software", 1.0}};
  CrawlConfig cfg;
  cfg.duration = SimDuration::minutes(30);
  cfg.query_interval = SimDuration::minutes(2);
  cfg.warmup = SimDuration::minutes(1);
  cfg.seed = 1;
  LimewireCrawler crawler(m.net, m.cache, QueryWorkload(queries), m.scanner, cfg);
  crawler.start();
  m.net.engine().run_until(SimTime::zero() + SimDuration::minutes(45));
  crawler.finalize();

  const auto& stats = crawler.stats();
  EXPECT_GT(stats.queries_sent, 5u);
  EXPECT_GT(stats.responses, 0u);
  EXPECT_GT(stats.downloads_ok, 0u);
  EXPECT_EQ(stats.downloads_failed, 0u);

  // Every study response must be labeled; echo responses malicious, the
  // honest setup clean.
  std::size_t malicious = 0, clean = 0;
  for (const auto& rec : crawler.records()) {
    ASSERT_TRUE(rec.is_study_type());  // only exe results in this setup
    ASSERT_TRUE(rec.downloaded) << rec.filename;
    if (rec.infected) {
      EXPECT_EQ(rec.strain_name, "W32.Mallet.A");
      EXPECT_EQ(rec.filename, "photomax.exe");  // query echo
      ++malicious;
    } else {
      EXPECT_EQ(rec.filename, "photomax setup.exe");
      ++clean;
    }
  }
  EXPECT_GT(malicious, 0u);
  EXPECT_GT(clean, 0u);

  // Download dedup: distinct contents are few (1 clean + at most 2 variants).
  EXPECT_LE(stats.downloads_started, 4u);
}

TEST(LimewireCrawler, RecordsCarrySourceMetadata) {
  MiniCrawl m;
  std::vector<QueryItem> queries = {{"photomax", "software", 1.0}};
  CrawlConfig cfg;
  cfg.duration = SimDuration::minutes(10);
  cfg.query_interval = SimDuration::minutes(2);
  cfg.warmup = SimDuration::minutes(1);
  LimewireCrawler crawler(m.net, m.cache, QueryWorkload(queries), m.scanner, cfg);
  crawler.start();
  m.net.engine().run_until(SimTime::zero() + SimDuration::minutes(20));
  crawler.finalize();

  ASSERT_FALSE(crawler.records().empty());
  for (const auto& rec : crawler.records()) {
    EXPECT_EQ(rec.network, "limewire");
    EXPECT_EQ(rec.query, "photomax");
    EXPECT_EQ(rec.query_category, "software");
    EXPECT_FALSE(rec.source_key.empty());
    EXPECT_FALSE(rec.content_key.empty());
    EXPECT_GT(rec.size, 0u);
  }
}

TEST(OpenFtCrawler, EndToEndAgainstSearchNode) {
  sim::Network net(999);
  auto cache = std::make_shared<openft::FtHostCache>();
  auto catalog = malware::openft_catalog();
  auto artifacts = std::make_shared<malware::ArtifactStore>(catalog.strains, 21);
  auto scanner = std::make_shared<malware::Scanner>(catalog.strains);

  // Search node.
  openft::FtConfig search_cfg;
  search_cfg.klass = openft::kSearch | openft::kUser;
  auto search = std::make_unique<openft::FtNode>(search_cfg,
                                                 std::vector<openft::FtShare>{},
                                                 cache, 200);
  sim::HostProfile sp;
  sp.ip = util::Ipv4(6, 6, 6, 6);
  sp.port = 1216;
  net.add_node(std::move(search), sp);
  cache->add({sp.ip, sp.port});

  // Infected user sharing a strain-0 artifact under a popular-looking path,
  // plus a clean exe.
  util::Rng pick(5);
  std::vector<openft::FtShare> shares;
  shares.push_back({artifacts->pick(0, pick), "/shared/tunegrab.exe"});
  util::Bytes clean(7'000, 0x42);
  clean[0] = 'M';
  clean[1] = 'Z';
  shares.push_back({std::make_shared<const files::FileContent>("tunegrab pro.exe",
                                                               std::move(clean)),
                    "/shared/tunegrab pro.exe"});
  openft::FtConfig user_cfg;
  auto user = std::make_unique<openft::FtNode>(user_cfg, shares, cache, 201);
  sim::HostProfile up;
  up.ip = util::Ipv4(6, 6, 6, 7);
  up.port = 5000;
  net.add_node(std::move(user), up);

  std::vector<QueryItem> queries = {{"tunegrab", "software", 1.0}};
  CrawlConfig cfg;
  cfg.duration = SimDuration::minutes(30);
  cfg.query_interval = SimDuration::minutes(3);
  cfg.warmup = SimDuration::minutes(2);
  OpenFtCrawler crawler(net, cache, QueryWorkload(queries), scanner, cfg);
  crawler.start();
  net.engine().run_until(SimTime::zero() + SimDuration::minutes(45));
  crawler.finalize();

  EXPECT_GT(crawler.stats().queries_sent, 3u);
  ASSERT_GT(crawler.records().size(), 0u);
  std::size_t malicious = 0, clean_count = 0;
  for (const auto& rec : crawler.records()) {
    EXPECT_EQ(rec.network, "openft");
    ASSERT_TRUE(rec.downloaded) << rec.filename;
    if (rec.infected) {
      EXPECT_EQ(rec.strain_name, "FT.Gobbler.A");
      ++malicious;
    } else {
      ++clean_count;
    }
  }
  EXPECT_GT(malicious, 0u);
  EXPECT_GT(clean_count, 0u);
}

}  // namespace
}  // namespace p2p::crawler
