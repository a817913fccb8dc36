// Behaviour, population-builder, and churn tests.
#include <gtest/gtest.h>

#include "agents/behavior.h"
#include "agents/churn.h"
#include "agents/population.h"
#include "malware/scanner.h"

namespace p2p::agents {
namespace {

using sim::SimDuration;

TEST(EchoFilename, EchoesQueryKeywords) {
  EXPECT_EQ(echo_filename("Blue Horizon!", "worm.exe"), "blue horizon.exe");
  EXPECT_EQ(echo_filename("photomax keygen", "pack.zip"), "photomax keygen.zip");
  EXPECT_EQ(echo_filename("", "worm.exe"), "download.exe");
  EXPECT_EQ(echo_filename("x", "noext"), "download.exe");
}

malware::CalibratedCatalog small_catalog() { return malware::limewire_catalog(); }

TEST(InfectedAnswerer, AnswersEveryQueryWithEcho) {
  auto cat = small_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  InfectedAnswerer answerer(store, {0}, gnutella::SharedFileIndex{}, 9);

  auto r1 = answerer.answer("some random query");
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].filename, "some random query.exe");
  auto r2 = answerer.answer("another thing entirely");
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].filename, "another thing entirely.exe");
  // Different indices, same (or variant) payloads of the strain.
  EXPECT_NE(r1[0].index, r2[0].index);
}

TEST(InfectedAnswerer, ResolvedBytesScanAsStrain) {
  auto cat = small_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  malware::Scanner scanner(cat.strains);
  InfectedAnswerer answerer(store, {1}, gnutella::SharedFileIndex{}, 9);

  auto results = answerer.answer("bait query");
  ASSERT_EQ(results.size(), 1u);
  auto content = answerer.resolve(results[0].index);
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(content->size(), results[0].size);
  EXPECT_EQ(content->sha1(), results[0].sha1);
  auto scan = scanner.scan(content->bytes());
  ASSERT_TRUE(scan.infected());
  EXPECT_EQ(scan.primary(), 1u);
}

TEST(InfectedAnswerer, IncludesHonestShares) {
  auto cat = small_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  gnutella::SharedFileIndex index;
  index.add(std::make_shared<const files::FileContent>("legit song.mp3",
                                                       util::Bytes(100, 1)));
  InfectedAnswerer answerer(store, {0}, std::move(index), 9);
  auto results = answerer.answer("legit song");
  // Honest match + worm echo.
  EXPECT_EQ(results.size(), 2u);
}

TEST(InfectedAnswerer, QrtIsAllOnes) {
  auto cat = small_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  InfectedAnswerer answerer(store, {0}, gnutella::SharedFileIndex{}, 9);
  gnutella::QueryRouteTable qrt(13);
  answerer.populate_qrt(qrt);
  EXPECT_DOUBLE_EQ(qrt.fill_ratio(), 1.0);
}

TEST(InfectedAnswerer, UnknownIndexResolvesNull) {
  auto cat = small_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  InfectedAnswerer answerer(store, {0}, gnutella::SharedFileIndex{}, 9);
  EXPECT_EQ(answerer.resolve(123'456'789), nullptr);
}

TEST(IpAllocator, PublicAddressesUniqueAndPublic) {
  IpAllocator alloc(3);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    util::Ipv4 ip = alloc.next_public();
    EXPECT_TRUE(ip.is_publicly_routable());
    EXPECT_TRUE(seen.insert(ip.value()).second);
  }
}

TEST(IpAllocator, PrivateAddressesAreRfc1918) {
  IpAllocator alloc(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(alloc.random_private().is_private());
  }
}

TEST(LureQueries, DerivedFromCatalogLures) {
  auto queries = lure_queries_for(malware::limewire_catalog());
  EXPECT_FALSE(queries.empty());
  // "screensaver_pack.exe" -> "screensaver pack exe".
  bool found = false;
  for (const auto& q : queries) {
    if (q.find("screensaver") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

GnutellaPopulationConfig small_gnutella_config() {
  GnutellaPopulationConfig cfg;
  cfg.seed = 77;
  cfg.ultrapeers = 4;
  cfg.leaves = 60;
  cfg.infected_fraction = 0.25;
  cfg.corpus.num_titles = 200;
  return cfg;
}

TEST(GnutellaPopulation, BuildsExpectedStructure) {
  sim::Network net(1);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  EXPECT_EQ(pop.ultrapeer_ids.size(), 4u);
  EXPECT_EQ(pop.leaf_specs.size(), 60u);
  EXPECT_EQ(pop.host_cache->size(), 4u);
  EXPECT_FALSE(pop.lure_queries.empty());
  EXPECT_EQ(net.node_count(), 4u);  // only ultrapeers added eagerly
}

TEST(GnutellaPopulation, InfectedFractionApproximate) {
  sim::Network net(1);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  int infected = 0;
  for (const auto& spec : pop.leaf_specs) {
    if (spec.infected) ++infected;
  }
  EXPECT_NEAR(static_cast<double>(infected) / 60.0, 0.25, 0.15);
}

TEST(GnutellaPopulation, SpecsProduceWorkingNodes) {
  sim::Network net(1);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  // Instantiate a few leaves twice (churn behaviour) — must not throw and
  // must produce distinct node objects.
  auto n1 = pop.leaf_specs[0].make();
  auto n2 = pop.leaf_specs[0].make();
  EXPECT_NE(n1.get(), n2.get());
}

TEST(GnutellaPopulation, InfectedSpecsCarryStrain) {
  sim::Network net(1);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  for (const auto& spec : pop.leaf_specs) {
    if (spec.infected) {
      EXPECT_NE(spec.strain, malware::kCleanStrain);
    } else {
      EXPECT_EQ(spec.strain, malware::kCleanStrain);
    }
  }
}

OpenFtPopulationConfig small_openft_config() {
  OpenFtPopulationConfig cfg;
  cfg.seed = 78;
  cfg.search_nodes = 3;
  cfg.users = 40;
  cfg.infected_fraction = 0.2;
  cfg.corpus.num_titles = 200;
  return cfg;
}

TEST(OpenFtPopulation, BuildsExpectedStructure) {
  sim::Network net(1);
  auto pop = build_openft_population(net, small_openft_config());
  EXPECT_EQ(pop.search_node_ids.size(), 3u);
  EXPECT_EQ(pop.user_specs.size(), 40u);
  EXPECT_LT(pop.superspreader_index, pop.user_specs.size());
}

TEST(OpenFtPopulation, SuperspreaderHasHeadStrainAndIsPublic) {
  sim::Network net(1);
  auto pop = build_openft_population(net, small_openft_config());
  const auto& ss = pop.user_specs[pop.superspreader_index];
  EXPECT_TRUE(ss.infected);
  EXPECT_EQ(ss.strain, pop.strain_catalog.strains.front().id);
  EXPECT_FALSE(ss.profile.behind_nat);
}

TEST(OpenFtPopulation, DisabledSuperspreader) {
  sim::Network net(1);
  auto cfg = small_openft_config();
  cfg.enable_superspreader = false;
  auto pop = build_openft_population(net, cfg);
  EXPECT_EQ(pop.superspreader_index, static_cast<std::size_t>(-1));
}

TEST(ChurnDriver, PeersJoinAndLeave) {
  sim::Network net(5);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  ChurnConfig churn_cfg;
  churn_cfg.mean_session = SimDuration::minutes(30);
  churn_cfg.mean_offline = SimDuration::minutes(30);
  churn_cfg.seed = 11;
  ChurnDriver churn(net, pop.leaf_specs, churn_cfg);
  churn.start();
  net.engine().run_until(sim::SimTime::zero() + SimDuration::hours(6));
  EXPECT_GT(churn.joins(), pop.leaf_specs.size());  // rejoin cycles happened
  EXPECT_GT(churn.leaves(), 0u);
  // Stationary occupancy about half.
  EXPECT_NEAR(static_cast<double>(churn.online_count()) / 60.0, 0.5, 0.3);
}

TEST(ChurnDriver, NodeOfTracksLiveness) {
  sim::Network net(5);
  auto pop = build_gnutella_population(net, small_gnutella_config());
  ChurnConfig churn_cfg;
  churn_cfg.initial_online_override = 1.0;
  churn_cfg.seed = 12;
  ChurnDriver churn(net, pop.leaf_specs, churn_cfg);
  churn.start();
  net.engine().run_until(sim::SimTime::zero() + SimDuration::minutes(2));
  std::size_t online = 0;
  for (std::size_t i = 0; i < pop.leaf_specs.size(); ++i) {
    sim::NodeId id = churn.node_of(i);
    if (id != sim::kInvalidNode) {
      EXPECT_TRUE(net.alive(id));
      ++online;
    }
  }
  EXPECT_EQ(online, churn.online_count());
  EXPECT_EQ(online, pop.leaf_specs.size());  // everyone started online
}

}  // namespace
}  // namespace p2p::agents
