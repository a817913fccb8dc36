// Tests for the extension features: pong-cache host discovery, upload
// slots, alt-source retry, OpenFT INDEX nodes, polymorphic size jitter,
// the hash-blocklist filter, and category analysis.
#include <gtest/gtest.h>

#include "agents/behavior.h"
#include "analysis/stats.h"
#include "crawler/limewire_crawler.h"
#include "filter/hash_blocklist.h"
#include "gnutella/servent.h"
#include "malware/catalogs.h"
#include "malware/scanner.h"
#include "openft/node.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Pong-cache host discovery
// ---------------------------------------------------------------------------

struct GnutellaRig {
  sim::Network net{555};
  std::shared_ptr<gnutella::HostCache> cache = std::make_shared<gnutella::HostCache>();
  std::uint64_t next_seed = 1;
  int next_ip = 1;

  gnutella::Servent* add_up(bool in_cache) {
    gnutella::ServentConfig cfg;
    cfg.ultrapeer = true;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto servent = std::make_unique<gnutella::Servent>(cfg, answerer, cache,
                                                       next_seed++);
    gnutella::Servent* raw = servent.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(8, 8, 8, static_cast<std::uint8_t>(next_ip));
    profile.port = static_cast<std::uint16_t>(6000 + next_ip);
    ++next_ip;
    net.add_node(std::move(servent), profile);
    if (in_cache) cache->add({profile.ip, profile.port});
    return raw;
  }

  void run_for(SimDuration d) { net.engine().run_until(net.now() + d); }
};

TEST(PongDiscovery, LearnsNeighbourEndpointsFromPongs) {
  GnutellaRig rig;
  gnutella::Servent* hub = rig.add_up(/*in_cache=*/true);
  gnutella::Servent* hidden = rig.add_up(/*in_cache=*/false);
  // `hidden` joins via the hub (the only cache entry).
  rig.run_for(SimDuration::minutes(2));
  ASSERT_GE(hidden->overlay_link_count(), 1u);

  // A latecomer bootstraps from the hub and must learn `hidden` via pongs.
  gnutella::Servent* late = rig.add_up(/*in_cache=*/false);
  rig.run_for(SimDuration::minutes(10));
  EXPECT_FALSE(late->learned_hosts().empty());
  // With the learned endpoint available, the latecomer links beyond the hub.
  EXPECT_GE(late->overlay_link_count(), 2u);
  (void)hub;
}

// ---------------------------------------------------------------------------
// Upload slots
// ---------------------------------------------------------------------------

TEST(UploadSlots, BusyServerRefusesExcessUploads) {
  sim::Network net(777);
  auto cache = std::make_shared<gnutella::HostCache>();

  // Server with one upload slot sharing one file.
  gnutella::SharedFileIndex index;
  util::Bytes content(60'000, 0x61);
  content[0] = 'M';
  content[1] = 'Z';
  index.add(std::make_shared<const files::FileContent>("hot file.exe",
                                                       std::move(content)));
  gnutella::ServentConfig server_cfg;
  server_cfg.ultrapeer = true;
  server_cfg.upload_slots = 1;
  server_cfg.upload_window = SimDuration::minutes(5);
  auto server_answerer = std::make_shared<gnutella::IndexAnswerer>(std::move(index));
  auto server =
      std::make_unique<gnutella::Servent>(server_cfg, server_answerer, cache, 1);
  gnutella::Servent* server_raw = server.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(9, 1, 1, 1);
  sp.port = 6346;
  net.add_node(std::move(server), sp);
  cache->add({sp.ip, sp.port});

  gnutella::ServentConfig leaf_cfg;
  auto leaf_answerer =
      std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto leaf = std::make_unique<gnutella::Servent>(leaf_cfg, leaf_answerer, cache, 2);
  gnutella::Servent* leaf_raw = leaf.get();
  sim::HostProfile lp;
  lp.ip = util::Ipv4(9, 1, 1, 2);
  lp.port = 7000;
  net.add_node(std::move(leaf), lp);

  net.engine().run_until(SimTime::zero() + SimDuration::seconds(30));

  std::vector<gnutella::HitEvent> hits;
  std::vector<gnutella::DownloadOutcome> outcomes;
  leaf_raw->set_hit_callback([&](const gnutella::HitEvent& e) { hits.push_back(e); });
  leaf_raw->set_download_callback(
      [&](const gnutella::DownloadOutcome& o) { outcomes.push_back(o); });
  leaf_raw->send_query("hot file");
  net.engine().run_until(net.now() + SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);

  // Two concurrent downloads: only one slot, so one gets 503.
  leaf_raw->download(hits[0].hit, hits[0].hit.results[0]);
  leaf_raw->download(hits[0].hit, hits[0].hit.results[0]);
  net.engine().run_until(net.now() + SimDuration::minutes(4));
  ASSERT_EQ(outcomes.size(), 2u);
  int ok = 0, busy = 0;
  for (const auto& o : outcomes) {
    if (o.success) {
      ++ok;
    } else {
      EXPECT_EQ(o.error, "http 503");
      ++busy;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(busy, 1);
  EXPECT_EQ(server_raw->stats().uploads_refused_busy, 1u);
}

// ---------------------------------------------------------------------------
// OpenFT INDEX nodes
// ---------------------------------------------------------------------------

TEST(IndexNode, AggregatesSearchNodeStats) {
  sim::Network net(888);
  auto cache = std::make_shared<openft::FtHostCache>();
  auto index_cache = std::make_shared<openft::FtHostCache>();

  openft::FtConfig index_cfg;
  index_cfg.klass = openft::kIndex;
  auto index_node = std::make_unique<openft::FtNode>(
      index_cfg, std::vector<openft::FtShare>{}, cache, 1);
  openft::FtNode* index_raw = index_node.get();
  sim::HostProfile ip_prof;
  ip_prof.ip = util::Ipv4(10, 0, 0, 0);  // deliberately odd: reserved? use public
  ip_prof.ip = util::Ipv4(11, 0, 0, 1);
  ip_prof.port = 1215;
  net.add_node(std::move(index_node), ip_prof);
  index_cache->add({ip_prof.ip, ip_prof.port});

  openft::FtConfig search_cfg;
  search_cfg.klass = openft::kSearch | openft::kUser;
  search_cfg.stats_interval = SimDuration::minutes(5);
  auto search = std::make_unique<openft::FtNode>(
      search_cfg, std::vector<openft::FtShare>{}, cache, 2, index_cache);
  sim::HostProfile sp;
  sp.ip = util::Ipv4(11, 0, 0, 2);
  sp.port = 1216;
  net.add_node(std::move(search), sp);
  cache->add({sp.ip, sp.port});

  // A user child with two shares.
  std::vector<openft::FtShare> shares;
  shares.push_back({std::make_shared<const files::FileContent>(
                        "a.mp3", util::Bytes(1'000'000, 1)),
                    "/shared/a.mp3"});
  shares.push_back({std::make_shared<const files::FileContent>(
                        "b.mp3", util::Bytes(2'000'000, 2)),
                    "/shared/b.mp3"});
  openft::FtConfig user_cfg;
  auto user = std::make_unique<openft::FtNode>(user_cfg, shares, cache, 3);
  sim::HostProfile up;
  up.ip = util::Ipv4(11, 0, 0, 3);
  up.port = 5000;
  net.add_node(std::move(user), up);

  net.engine().run_until(SimTime::zero() + SimDuration::minutes(12));
  auto stats = index_raw->network_stats();
  EXPECT_EQ(stats.users, 1u);
  EXPECT_EQ(stats.shares, 2u);
  EXPECT_EQ(stats.size_mb, 2u);  // ~3MB rounded down per report
}

// ---------------------------------------------------------------------------
// Polymorphic jitter (A3 model)
// ---------------------------------------------------------------------------

TEST(PolymorphicJitter, UniqueSizeAndHashPerResponse) {
  auto cat = malware::limewire_catalog();
  cat.strains[0].size_jitter = 4096;
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  malware::Scanner scanner(cat.strains);
  agents::InfectedAnswerer answerer(store, {0}, gnutella::SharedFileIndex{}, 9);

  auto r1 = answerer.answer("query one");
  auto r2 = answerer.answer("query two");
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_NE(r1[0].sha1, r2[0].sha1);

  // Still detectable by signature, and resolvable for upload.
  auto c1 = answerer.resolve(r1[0].index);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->size(), r1[0].size);
  auto scan = scanner.scan(c1->bytes());
  ASSERT_TRUE(scan.infected());
  EXPECT_EQ(scan.primary(), 0u);
}

TEST(PolymorphicJitter, DisabledByDefault) {
  auto cat = malware::limewire_catalog();
  for (const auto& s : cat.strains) EXPECT_EQ(s.size_jitter, 0u);
}

// ---------------------------------------------------------------------------
// Hash-blocklist filter
// ---------------------------------------------------------------------------

crawler::ResponseRecord labeled_record(const std::string& key, bool infected) {
  crawler::ResponseRecord r;
  r.filename = "x.exe";
  r.type_by_name = files::FileType::kExecutable;
  r.size = 1000;
  r.content_key = key;
  r.downloaded = true;
  r.infected = infected;
  return r;
}

TEST(HashBlocklist, LearnsAboveThreshold) {
  std::vector<crawler::ResponseRecord> training;
  for (int i = 0; i < 5; ++i) training.push_back(labeled_record("popular", true));
  training.push_back(labeled_record("rare", true));
  training.push_back(labeled_record("clean", false));

  auto filter = filter::HashBlocklistFilter::learn(training, 3);
  EXPECT_EQ(filter.size(), 1u);
  EXPECT_TRUE(filter.blocks(labeled_record("popular", true)));
  EXPECT_FALSE(filter.blocks(labeled_record("rare", true)));
  EXPECT_FALSE(filter.blocks(labeled_record("clean", false)));
}

TEST(HashBlocklist, CleanHashesNeverEnterList) {
  std::vector<crawler::ResponseRecord> training;
  for (int i = 0; i < 10; ++i) training.push_back(labeled_record("clean", false));
  auto filter = filter::HashBlocklistFilter::learn(training, 1);
  EXPECT_EQ(filter.size(), 0u);
}

// ---------------------------------------------------------------------------
// Category breakdown
// ---------------------------------------------------------------------------

TEST(CategoryBreakdown, GroupsAndOrders) {
  std::vector<crawler::ResponseRecord> records;
  auto rec = [&](const std::string& cat, bool infected) {
    auto r = labeled_record(cat + "-key", infected);
    r.query_category = cat;
    records.push_back(r);
  };
  rec("software", true);
  rec("software", true);
  rec("software", false);
  rec("music", true);
  rec("music", false);
  rec("lure", false);

  auto bins = analysis::category_breakdown(records);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0].category, "software");
  EXPECT_EQ(bins[0].infected, 2u);
  EXPECT_NEAR(bins[0].malicious_fraction(), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(bins[1].category, "music");
  EXPECT_EQ(bins[2].category, "lure");
  EXPECT_EQ(bins[2].infected, 0u);
}

}  // namespace
}  // namespace p2p
