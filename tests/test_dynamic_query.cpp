// Dynamic querying: iterative ultrapeer probing with result-count cutoff.
#include <gtest/gtest.h>

#include "gnutella/servent.h"

namespace p2p::gnutella {
namespace {

using sim::SimDuration;
using sim::SimTime;

std::shared_ptr<const files::FileContent> make_file(const std::string& name,
                                                    std::size_t size) {
  util::Bytes bytes(size, 0x61);
  bytes[0] = 'M';
  bytes[1] = 'Z';
  return std::make_shared<const files::FileContent>(name, std::move(bytes));
}

struct DqRig {
  sim::Network net{31415};
  std::shared_ptr<HostCache> cache = std::make_shared<HostCache>();
  std::vector<Servent*> ups;
  int next_ip = 1;

  Servent* add_up(std::vector<std::shared_ptr<const files::FileContent>> shares) {
    SharedFileIndex index;
    for (auto& f : shares) index.add(std::move(f));
    ServentConfig cfg;
    cfg.ultrapeer = true;
    auto answerer = std::make_shared<IndexAnswerer>(std::move(index));
    auto servent = std::make_unique<Servent>(cfg, answerer, cache,
                                             static_cast<std::uint64_t>(next_ip));
    Servent* raw = servent.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(30, 0, 0, static_cast<std::uint8_t>(next_ip));
    profile.port = 6346;
    ++next_ip;
    net.add_node(std::move(servent), profile);
    cache->add({profile.ip, profile.port});
    ups.push_back(raw);
    return raw;
  }

  Servent* add_searcher() {
    ServentConfig cfg;
    cfg.leaf_up_count = 4;
    auto answerer = std::make_shared<IndexAnswerer>(SharedFileIndex{});
    auto servent = std::make_unique<Servent>(cfg, answerer, cache, 999);
    Servent* raw = servent.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(30, 0, 1, 1);
    profile.port = 7000;
    net.add_node(std::move(servent), profile);
    return raw;
  }

  void run_for(SimDuration d) { net.engine().run_until(net.now() + d); }
};

TEST(DynamicQuery, StopsProbingOnceTargetReached) {
  DqRig rig;
  // Every ultrapeer shares a match: the first probe already satisfies a
  // target of 1.
  for (int i = 0; i < 4; ++i) {
    rig.add_up({make_file("abundant file " + std::to_string(i) + ".mp3", 100)});
  }
  Servent* searcher = rig.add_searcher();
  rig.run_for(SimDuration::minutes(2));

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->send_query_dynamic("abundant file", 1, SimDuration::seconds(8));
  rig.run_for(SimDuration::minutes(3));

  // The probes stop after the target: fewer queries processed across the
  // mesh than a flood would cause.
  std::uint64_t processed = 0;
  for (auto* up : rig.ups) processed += up->stats().queries_received;
  EXPECT_GE(hits.size(), 1u);
  EXPECT_LT(processed, 4u);  // a flood (ttl 4) would reach all 4 ultrapeers
}

TEST(DynamicQuery, WidensUntilRareResultFound) {
  DqRig rig;
  rig.add_up({});
  rig.add_up({});
  rig.add_up({});
  rig.add_up({make_file("needle in haystack.exe", 500)});
  Servent* searcher = rig.add_searcher();
  rig.run_for(SimDuration::minutes(2));

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->send_query_dynamic("needle haystack", 1, SimDuration::seconds(5));
  rig.run_for(SimDuration::minutes(5));
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].hit.results[0].filename, "needle in haystack.exe");
}

TEST(DynamicQuery, RepeatedGuidSuppressedAtVisitedNodes) {
  DqRig rig;
  rig.add_up({});
  rig.add_up({});
  Servent* searcher = rig.add_searcher();
  rig.run_for(SimDuration::minutes(2));

  // Impossible target: the probe sequence exhausts every ultrapeer.
  searcher->send_query_dynamic("nothing matches this", 1000,
                               SimDuration::seconds(5));
  rig.run_for(SimDuration::minutes(5));
  // Each ultrapeer processed the query exactly once (later copies of the
  // same GUID are duplicate-dropped).
  for (auto* up : rig.ups) {
    EXPECT_EQ(up->stats().queries_received, 1u) << "ultrapeer over-processed";
  }
}

TEST(DynamicQuery, NoUltrapeersNoCrash) {
  sim::Network net(1);
  auto cache = std::make_shared<HostCache>();
  ServentConfig cfg;
  auto answerer = std::make_shared<IndexAnswerer>(SharedFileIndex{});
  auto servent = std::make_unique<Servent>(cfg, answerer, cache, 5);
  Servent* raw = servent.get();
  sim::HostProfile profile;
  profile.ip = util::Ipv4(30, 1, 1, 1);
  profile.port = 7000;
  net.add_node(std::move(servent), profile);
  net.engine().run_until(SimTime::zero() + SimDuration::seconds(30));
  raw->send_query_dynamic("anything", 10, SimDuration::seconds(5));
  net.engine().run_until(net.now() + SimDuration::minutes(2));
  EXPECT_EQ(raw->stats().hits_received, 0u);
}

}  // namespace
}  // namespace p2p::gnutella
