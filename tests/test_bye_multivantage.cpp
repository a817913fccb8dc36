// BYE graceful-leave semantics and multi-vantage crawling.
#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "core/study.h"
#include "gnutella/servent.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

TEST(ByeMessage, RoundTrips) {
  util::Rng rng(1);
  auto msg = gnutella::make_bye(gnutella::Guid::random(rng), 200, "client exiting");
  auto parsed = gnutella::parse(gnutella::serialize(msg));
  ASSERT_TRUE(parsed.has_value());
  const auto& bye = std::get<gnutella::Bye>(parsed->payload);
  EXPECT_EQ(bye.code, 200);
  EXPECT_EQ(bye.reason, "client exiting");
}

struct ByeRig {
  sim::Network net{606};
  std::shared_ptr<gnutella::HostCache> cache = std::make_shared<gnutella::HostCache>();
  int next_ip = 1;

  gnutella::Servent* add(bool ultrapeer) {
    gnutella::ServentConfig cfg;
    cfg.ultrapeer = ultrapeer;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto servent = std::make_unique<gnutella::Servent>(
        cfg, answerer, cache, static_cast<std::uint64_t>(next_ip));
    gnutella::Servent* raw = servent.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(40, 0, 0, static_cast<std::uint8_t>(next_ip));
    profile.port = 6346;
    ++next_ip;
    net.add_node(std::move(servent), profile);
    if (ultrapeer) cache->add({profile.ip, profile.port});
    return raw;
  }
};

TEST(ByeMessage, PeerDropsLinkImmediately) {
  ByeRig rig;
  gnutella::Servent* up = rig.add(true);
  gnutella::Servent* leaf = rig.add(false);
  rig.net.engine().run_until(SimTime::zero() + SimDuration::minutes(1));
  ASSERT_EQ(up->leaf_count(), 1u);

  leaf->shutdown(200, "bye test");
  rig.net.remove_node(leaf->id());
  rig.net.engine().run_until(rig.net.now() + SimDuration::seconds(10));
  // The ultrapeer processed the BYE and released the leaf slot without
  // waiting for any timeout.
  EXPECT_EQ(up->leaf_count(), 0u);
}

TEST(ByeMessage, SurvivorRefillsAfterGracefulLeave) {
  ByeRig rig;
  gnutella::Servent* up1 = rig.add(true);
  gnutella::Servent* up2 = rig.add(true);
  gnutella::Servent* leaf = rig.add(false);
  rig.net.engine().run_until(SimTime::zero() + SimDuration::minutes(1));
  EXPECT_GE(leaf->overlay_link_count(), 2u);

  sim::NodeId up1_id = up1->id();
  up1->shutdown();
  rig.net.remove_node(up1_id);
  rig.cache->remove({rig.net.profile(up1_id).ip, rig.net.profile(up1_id).port});
  rig.net.engine().run_until(rig.net.now() + SimDuration::minutes(2));
  EXPECT_GE(leaf->overlay_link_count(), 1u);
  EXPECT_GE(up2->leaf_count(), 1u);
}

TEST(MultiVantage, MergedLogsAreTimeOrderedWithFreshIds) {
  auto cfg = core::limewire_quick();
  cfg.population.ultrapeers = 6;
  cfg.population.leaves = 80;
  cfg.population.corpus.num_titles = 300;
  cfg.crawl.duration = SimDuration::hours(2);
  cfg.crawl.query_interval = SimDuration::seconds(120);
  cfg.crawler_count = 3;
  auto result = core::run_limewire_study(cfg);

  ASSERT_GT(result.records.size(), 100u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].id, i + 1);
    if (i > 0) {
      EXPECT_LE(result.records[i - 1].at, result.records[i].at);
    }
  }
  // Three vantage points issue roughly 3x the queries of one.
  EXPECT_GT(result.crawl_stats.queries_sent, 100u);
}

TEST(MultiVantage, MoreVantagePointsMoreCoverage) {
  auto base = core::limewire_quick();
  base.population.ultrapeers = 6;
  base.population.leaves = 80;
  base.population.corpus.num_titles = 300;
  base.crawl.duration = SimDuration::hours(2);
  base.crawl.query_interval = SimDuration::seconds(120);

  auto single = core::run_limewire_study(base);
  auto multi_cfg = base;
  multi_cfg.crawler_count = 2;
  auto multi = core::run_limewire_study(multi_cfg);

  EXPECT_GT(multi.records.size(), single.records.size());
  // The headline statistic is vantage-independent.
  auto s1 = analysis::prevalence(single.records);
  auto s2 = analysis::prevalence(multi.records);
  EXPECT_NEAR(s1.malicious_fraction(), s2.malicious_fraction(), 0.15);
}

}  // namespace
}  // namespace p2p
