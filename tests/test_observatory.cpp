// Passive instrumentation: organic querying leaves + the instrumented
// ultrapeer observatory.
#include <gtest/gtest.h>

#include "agents/behavior.h"
#include "crawler/observatory.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

struct ObservatoryRig {
  sim::Network net{2024};
  std::shared_ptr<gnutella::HostCache> cache = std::make_shared<gnutella::HostCache>();
  std::shared_ptr<files::ContentCatalog> catalog;

  ObservatoryRig() {
    files::CorpusConfig corpus;
    corpus.seed = 3;
    corpus.num_titles = 120;
    catalog = std::make_shared<files::ContentCatalog>(corpus);
  }

  void add_ultrapeer(int i) {
    gnutella::ServentConfig cfg;
    cfg.ultrapeer = true;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto servent = std::make_unique<gnutella::Servent>(
        cfg, answerer, cache, static_cast<std::uint64_t>(i + 10));
    sim::HostProfile profile;
    profile.ip = util::Ipv4(20, 0, 0, static_cast<std::uint8_t>(i + 1));
    profile.port = 6346;
    net.add_node(std::move(servent), profile);
    cache->add({profile.ip, profile.port});
  }

  agents::QueryingServent* add_querier(int i, SimDuration interval) {
    gnutella::ServentConfig cfg;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto servent = std::make_unique<agents::QueryingServent>(
        cfg, answerer, cache, catalog, interval, static_cast<std::uint64_t>(i + 50));
    auto* raw = servent.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(20, 0, 1, static_cast<std::uint8_t>(i + 1));
    profile.port = 7000;
    net.add_node(std::move(servent), profile);
    return raw;
  }
};

TEST(QueryingServent, IssuesQueriesWhileOnline) {
  ObservatoryRig rig;
  rig.add_ultrapeer(0);
  auto* querier = rig.add_querier(0, SimDuration::minutes(5));
  rig.net.engine().run_until(SimTime::zero() + SimDuration::hours(2));
  // ~24 expected at a 5-minute mean over 2 hours; allow wide slack.
  EXPECT_GE(querier->stats().queries_originated, 8u);
  EXPECT_LE(querier->stats().queries_originated, 60u);
}

TEST(Observatory, CountsQueriesPassingThrough) {
  ObservatoryRig rig;
  rig.add_ultrapeer(0);
  crawler::QueryObservatory observatory(rig.net, rig.cache, 77);
  for (int i = 0; i < 6; ++i) rig.add_querier(i, SimDuration::minutes(10));
  rig.net.engine().run_until(SimTime::zero() + SimDuration::hours(4));

  EXPECT_GT(observatory.total_queries(), 20u);
  EXPECT_GT(observatory.distinct_queries(), 5u);
  auto top = observatory.top_queries(5);
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top[0].count, top.back().count);
  // Directly-attached leaves arrive at hops 0; forwarded copies at >= 1.
  for (const auto& [hop, count] : observatory.hop_histogram()) {
    EXPECT_GE(hop, 0);
    EXPECT_LE(hop, 7);
    EXPECT_GT(count, 0u);
  }
}

TEST(Observatory, PopularityIsZipfLike) {
  ObservatoryRig rig;
  rig.add_ultrapeer(0);
  rig.add_ultrapeer(1);
  crawler::QueryObservatory observatory(rig.net, rig.cache, 78);
  for (int i = 0; i < 12; ++i) rig.add_querier(i, SimDuration::minutes(4));
  rig.net.engine().run_until(SimTime::zero() + SimDuration::hours(8));

  ASSERT_GT(observatory.total_queries(), 200u);
  double slope = observatory.zipf_slope();
  // Catalog exponent is 0.8; sampled workloads regress shallower/steeper
  // but clearly negative and in a plausible band.
  EXPECT_LT(slope, -0.3);
  EXPECT_GT(slope, -1.6);
}

TEST(Observatory, SilentWithoutTraffic) {
  ObservatoryRig rig;
  rig.add_ultrapeer(0);
  crawler::QueryObservatory observatory(rig.net, rig.cache, 79);
  rig.net.engine().run_until(SimTime::zero() + SimDuration::hours(1));
  EXPECT_EQ(observatory.total_queries(), 0u);
  EXPECT_DOUBLE_EQ(observatory.zipf_slope(), 0.0);
}

}  // namespace
}  // namespace p2p
