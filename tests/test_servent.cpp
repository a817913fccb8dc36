// Integration tests for the Gnutella servent: handshake, topology, query
// flow, hit routing, QRP, downloads (direct and PUSH), and failure paths —
// run on small hand-built networks.
#include "gnutella/servent.h"

#include <gtest/gtest.h>

#include "agents/behavior.h"
#include "agents/epidemic.h"
#include "files/file.h"
#include "gnutella/shared_index.h"
#include "malware/catalogs.h"

namespace p2p::gnutella {
namespace {

using sim::Network;
using sim::NodeId;
using sim::SimDuration;
using sim::SimTime;

std::shared_ptr<const files::FileContent> make_file(const std::string& name,
                                                    std::size_t size,
                                                    std::uint8_t fill = 0x61) {
  util::Bytes bytes(size, fill);
  if (size >= 2) {
    bytes[0] = 'M';
    bytes[1] = 'Z';
  }
  return std::make_shared<const files::FileContent>(name, std::move(bytes));
}

struct MiniNet {
  Network net{777};
  std::shared_ptr<HostCache> cache = std::make_shared<HostCache>();
  std::vector<Servent*> servents;
  std::uint64_t next_seed = 1000;
  int next_ip = 1;

  Servent* add(bool ultrapeer, std::vector<std::shared_ptr<const files::FileContent>> shares,
               bool behind_nat = false, bool advertise_private = false) {
    SharedFileIndex index;
    for (auto& f : shares) index.add(std::move(f));
    auto answerer = std::make_shared<IndexAnswerer>(std::move(index));
    ServentConfig cfg;
    cfg.ultrapeer = ultrapeer;
    auto servent = std::make_unique<Servent>(cfg, answerer, cache, next_seed++);
    Servent* raw = servent.get();

    sim::HostProfile profile;
    profile.ip = advertise_private ? util::Ipv4(192, 168, 1, 77)
                                   : util::Ipv4(5, 5, 5, static_cast<std::uint8_t>(next_ip));
    profile.port = static_cast<std::uint16_t>(6000 + next_ip);
    ++next_ip;
    profile.behind_nat = behind_nat;
    net.add_node(std::move(servent), profile);
    if (ultrapeer && !behind_nat) {
      cache->add(util::Endpoint{profile.ip, profile.port});
    }
    servents.push_back(raw);
    return raw;
  }

  void run_for(SimDuration d) { net.engine().run_until(net.now() + d); }
};

TEST(Servent, LeafConnectsToUltrapeer) {
  MiniNet m;
  Servent* up = m.add(true, {});
  Servent* leaf = m.add(false, {});
  m.run_for(SimDuration::seconds(30));
  EXPECT_GE(leaf->overlay_link_count(), 1u);
  EXPECT_EQ(up->leaf_count(), 1u);
}

TEST(Servent, UltrapeersFormMesh) {
  MiniNet m;
  Servent* up1 = m.add(true, {});
  Servent* up2 = m.add(true, {});
  Servent* up3 = m.add(true, {});
  m.run_for(SimDuration::seconds(60));
  EXPECT_GE(up1->overlay_link_count(), 1u);
  EXPECT_GE(up2->overlay_link_count(), 1u);
  EXPECT_GE(up3->overlay_link_count(), 1u);
}

TEST(Servent, LeafDoesNotAcceptOverlay) {
  MiniNet m;
  // Leaf registered in the host cache as if it were an ultrapeer.
  Servent* fake = m.add(false, {});
  m.cache->add(util::Endpoint{m.net.profile(fake->id()).ip,
                              m.net.profile(fake->id()).port});
  Servent* joiner = m.add(false, {});
  m.run_for(SimDuration::seconds(60));
  EXPECT_EQ(joiner->overlay_link_count(), 0u);
}

TEST(Servent, QueryReachesSharerAndHitRoutesBack) {
  MiniNet m;
  m.add(true, {make_file("blue horizon - midnight rain.mp3", 5000)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  Guid query = searcher->send_query("blue horizon");
  m.run_for(SimDuration::seconds(30));

  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].query_guid, query);
  ASSERT_EQ(hits[0].hit.results.size(), 1u);
  EXPECT_EQ(hits[0].hit.results[0].filename, "blue horizon - midnight rain.mp3");
  EXPECT_EQ(hits[0].hit.results[0].size, 5000u);
}

TEST(Servent, QueryFloodsAcrossUltrapeers) {
  MiniNet m;
  m.add(true, {});
  Servent* far_up = m.add(true, {make_file("rare gem.exe", 4000)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(60));
  ASSERT_GE(far_up->overlay_link_count(), 1u);

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->send_query("rare gem");
  m.run_for(SimDuration::seconds(30));
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].hit.results[0].filename, "rare gem.exe");
}

TEST(Servent, QueryReachesLeafViaQrp) {
  MiniNet m;
  m.add(true, {});
  Servent* sharer = m.add(false, {make_file("hidden treasure.zip", 3000)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->send_query("hidden treasure");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].hit.servent_guid, sharer->servent_guid());
}

TEST(Servent, QrpSuppressesNonMatchingLeafForwards) {
  MiniNet m;
  Servent* up = m.add(true, {});
  Servent* sharer = m.add(false, {make_file("something else.mp3", 1000)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  searcher->send_query("no leaf shares this");
  m.run_for(SimDuration::seconds(30));
  EXPECT_EQ(sharer->stats().queries_received, 0u);
  EXPECT_GE(up->stats().qrp_suppressed, 1u);
}

TEST(Servent, QrpDisabledFloodsLeaves) {
  MiniNet m;
  // Build an ultrapeer with QRP off.
  SharedFileIndex empty;
  ServentConfig up_cfg;
  up_cfg.ultrapeer = true;
  up_cfg.use_qrp = false;
  auto answerer = std::make_shared<IndexAnswerer>(std::move(empty));
  auto up = std::make_unique<Servent>(up_cfg, answerer, m.cache, 1);
  sim::HostProfile profile;
  profile.ip = util::Ipv4(9, 9, 9, 9);
  profile.port = 6346;
  m.net.add_node(std::move(up), profile);
  m.cache->add(util::Endpoint{profile.ip, profile.port});

  Servent* leaf = m.add(false, {make_file("whatever.mp3", 100)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  searcher->send_query("zzz nothing matches");
  m.run_for(SimDuration::seconds(30));
  EXPECT_EQ(leaf->stats().queries_received, 1u);
}

TEST(Servent, DirectDownloadDeliversExactBytes) {
  MiniNet m;
  auto file = make_file("payload.exe", 20'000, 0x5A);
  m.add(true, {file});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  std::vector<DownloadOutcome> outcomes;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->set_download_callback(
      [&](const DownloadOutcome& o) { outcomes.push_back(o); });
  searcher->send_query("payload");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);

  searcher->download(hits[0].hit, hits[0].hit.results[0]);
  m.run_for(SimDuration::seconds(60));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].content, file->bytes());
}

TEST(Servent, DownloadFromFirewalledHostUsesPush) {
  MiniNet m;
  auto file = make_file("natted file.exe", 8'000, 0x77);
  m.add(true, {});
  Servent* natted = m.add(false, {file}, /*behind_nat=*/true,
                          /*advertise_private=*/true);
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  std::vector<DownloadOutcome> outcomes;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->set_download_callback(
      [&](const DownloadOutcome& o) { outcomes.push_back(o); });
  searcher->send_query("natted file");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0].hit.needs_push);
  EXPECT_TRUE(hits[0].hit.addr.ip.is_private());

  searcher->download(hits[0].hit, hits[0].hit.results[0]);
  m.run_for(SimDuration::minutes(3));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].content, file->bytes());
  EXPECT_GE(natted->stats().uploads_served, 1u);
}

TEST(Servent, DownloadOfUnknownIndexFails) {
  MiniNet m;
  m.add(true, {make_file("real.exe", 1000)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  std::vector<DownloadOutcome> outcomes;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->set_download_callback(
      [&](const DownloadOutcome& o) { outcomes.push_back(o); });
  searcher->send_query("real");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);

  QueryHitResult bogus = hits[0].hit.results[0];
  bogus.index = 999;  // not shared
  searcher->download(hits[0].hit, bogus);
  m.run_for(SimDuration::minutes(3));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].success);
}

TEST(Servent, DownloadFromVanishedHostTimesOut) {
  MiniNet m;
  auto file = make_file("gone.exe", 1000);
  m.add(true, {});
  Servent* sharer = m.add(false, {file});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  std::vector<DownloadOutcome> outcomes;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->set_download_callback(
      [&](const DownloadOutcome& o) { outcomes.push_back(o); });
  searcher->send_query("gone");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);

  m.net.remove_node(sharer->id());
  searcher->download(hits[0].hit, hits[0].hit.results[0]);
  m.run_for(SimDuration::minutes(5));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].success);
}

TEST(Servent, DuplicateQueriesDropped) {
  MiniNet m;
  Servent* up1 = m.add(true, {});
  Servent* up2 = m.add(true, {});
  Servent* up3 = m.add(true, {});
  Servent* searcher = m.add(false, {});
  (void)up1;
  (void)up2;
  (void)up3;
  m.run_for(SimDuration::seconds(60));

  searcher->send_query("flood me");
  m.run_for(SimDuration::seconds(30));
  // With a 3-UP mesh the same query arrives at each UP multiple times;
  // each must process it exactly once.
  std::uint64_t dups = up1->stats().dropped_duplicate + up2->stats().dropped_duplicate +
                       up3->stats().dropped_duplicate;
  EXPECT_GE(dups, 1u);
  EXPECT_EQ(up1->stats().queries_received, 1u);
  EXPECT_EQ(up2->stats().queries_received, 1u);
  EXPECT_EQ(up3->stats().queries_received, 1u);
}

TEST(Servent, LeafReconnectsAfterUltrapeerLoss) {
  MiniNet m;
  Servent* up1 = m.add(true, {});
  Servent* up2 = m.add(true, {});
  Servent* leaf = m.add(false, {});
  m.run_for(SimDuration::seconds(60));
  EXPECT_GE(leaf->overlay_link_count(), 2u);

  sim::NodeId up1_id = up1->id();
  util::Endpoint up1_ep{m.net.profile(up1_id).ip, m.net.profile(up1_id).port};
  m.net.remove_node(up1_id);  // up1 pointer is dead from here on
  m.cache->remove(up1_ep);
  m.run_for(SimDuration::minutes(5));
  // Still connected to the surviving ultrapeer.
  EXPECT_GE(leaf->overlay_link_count(), 1u);
  EXPECT_GE(up2->leaf_count(), 1u);
}

TEST(Servent, MultipleResultsInOneHit) {
  MiniNet m;
  m.add(true, {make_file("album track one.mp3", 100),
               make_file("album track two.mp3", 200)});
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));

  std::vector<HitEvent> hits;
  searcher->set_hit_callback([&](const HitEvent& e) { hits.push_back(e); });
  searcher->send_query("album track");
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].hit.results.size(), 2u);
}

// A leaf that speaks only the overlay handshake and then sends a fixed
// list of descriptors to its ultrapeer — the QRP traffic a real leaf would
// never send — and counts the queries the ultrapeer forwards to it.
class ScriptedLeaf final : public sim::Node {
 public:
  ScriptedLeaf(util::Endpoint ultrapeer, std::vector<Message> script)
      : ultrapeer_(ultrapeer), script_(std::move(script)) {}

  void start() override {
    auto up = network().lookup(ultrapeer_);
    if (up) network().connect(id(), *up);
  }
  void on_connection_open(sim::ConnId conn, sim::NodeId, bool initiated) override {
    if (!initiated) return;
    network().send(conn, id(),
                   text("GNUTELLA CONNECT/0.6\r\nX-Ultrapeer: False\r\n\r\n"));
  }
  void on_message(sim::ConnId conn, const util::Payload& payload) override {
    if (!established_) {
      established_ = true;  // the acceptor's 200 OK
      network().send(conn, id(), text("GNUTELLA/0.6 200 OK\r\n\r\n"));
      for (const auto& msg : script_) network().send(conn, id(), serialize(msg));
      return;
    }
    auto msg = parse(payload);
    if (msg && msg->type() == MsgType::kQuery) ++queries_received;
  }

  std::size_t queries_received = 0;

 private:
  static util::Bytes text(std::string_view s) { return util::Bytes(s.begin(), s.end()); }

  util::Endpoint ultrapeer_;
  std::vector<Message> script_;
  bool established_ = false;
};

util::Bytes patch_for(std::string_view keywords, unsigned bits = 13) {
  QueryRouteTable qrt(bits);
  qrt.add_keywords(keywords);
  return qrt.to_patch_bytes();
}

// One ultrapeer, a searching leaf and a scripted leaf; returns how many of
// `queries` the ultrapeer forwarded to the scripted leaf.
std::size_t forwarded_to_scripted_leaf(std::vector<Message> script,
                                       const std::vector<std::string>& queries) {
  MiniNet m;
  Servent* up = m.add(true, {});
  const auto& p = m.net.profile(up->id());
  auto leaf = std::make_unique<ScriptedLeaf>(util::Endpoint{p.ip, p.port}, std::move(script));
  ScriptedLeaf* scripted = leaf.get();
  sim::HostProfile profile;
  profile.ip = util::Ipv4(7, 7, 7, 7);
  profile.port = 6346;
  m.net.add_node(std::move(leaf), profile);
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));
  EXPECT_EQ(up->leaf_count(), 2u);
  for (const auto& q : queries) {
    searcher->send_query(q);
    m.run_for(SimDuration::seconds(10));
  }
  return scripted->queries_received;
}

TEST(ServentQrp, PatchWithoutResetArmsTable) {
  util::Rng rng(5);
  std::vector<Message> script{make_qrp_patch(Guid::random(rng), patch_for("hidden treasure"))};
  EXPECT_EQ(forwarded_to_scripted_leaf(script, {"hidden treasure", "nothing matches here"}), 1u);
}

TEST(ServentQrp, NoQrpMeansNoGate) {
  EXPECT_EQ(forwarded_to_scripted_leaf({}, {"hidden treasure", "nothing matches here"}), 2u);
}

TEST(ServentQrp, ResetWithOutOfRangeBitsIsIgnored) {
  util::Rng rng(6);
  for (std::uint32_t bad_bits : {0u, 3u, 25u, 40u}) {
    // Armed table, then a bad RESET: the table must keep gating.
    std::vector<Message> after_patch{
        make_qrp_reset(Guid::random(rng), 13),
        make_qrp_patch(Guid::random(rng), patch_for("hidden treasure")),
        make_qrp_reset(Guid::random(rng), bad_bits)};
    EXPECT_EQ(forwarded_to_scripted_leaf(after_patch, {"hidden treasure", "nothing matches"}),
              1u)
        << bad_bits;
    // A bad RESET alone allocates and arms nothing: no gate.
    std::vector<Message> alone{make_qrp_reset(Guid::random(rng), bad_bits)};
    EXPECT_EQ(forwarded_to_scripted_leaf(alone, {"hidden treasure", "nothing matches"}), 2u)
        << bad_bits;
  }
}

TEST(ServentQrp, ValidResetDisarmsUntilNextPatch) {
  util::Rng rng(7);
  std::vector<Message> script{make_qrp_reset(Guid::random(rng), 13),
                              make_qrp_patch(Guid::random(rng), patch_for("hidden treasure")),
                              make_qrp_reset(Guid::random(rng), 10)};
  EXPECT_EQ(forwarded_to_scripted_leaf(script, {"hidden treasure", "nothing matches"}), 2u);
}

// A real leaf's shipped table gates exactly the queries its own keyword
// table admits: matches are forwarded, the rest are suppressed.
TEST(ServentQrp, ShippedLeafTableGatesQueries) {
  MiniNet m;
  Servent* up = m.add(true, {});
  std::vector<std::shared_ptr<const files::FileContent>> shares{
      make_file("hidden treasure.zip", 3000), make_file("blue horizon - midnight rain.mp3", 2000),
      make_file("setup tool 2006.exe", 4000)};
  SharedFileIndex index;
  for (const auto& f : shares) index.add(f);
  const QueryRouteTable table = index.build_qrt(13);
  Servent* sharer = m.add(false, shares);
  Servent* searcher = m.add(false, {});
  m.run_for(SimDuration::seconds(30));
  ASSERT_EQ(up->leaf_count(), 2u);

  const std::vector<std::string> queries{
      "hidden treasure", "treasure", "midnight rain", "blue", "setup tool",
      "nothing matches", "hidden gem", "unrelated words", "2006", "rain check"};
  std::uint64_t admitted = 0;
  for (const auto& q : queries) {
    admitted += table.matches(q) ? 1 : 0;
    searcher->send_query(q);
    m.run_for(SimDuration::seconds(10));
  }
  EXPECT_EQ(admitted, 6u);  // pinned: the four mismatches hash to unset slots
  EXPECT_EQ(sharer->stats().queries_received, admitted);
  EXPECT_EQ(up->stats().qrp_suppressed, queries.size() - admitted);
}

// populate_qrt must fill the table exactly as the PATCH round trip it
// replaced: build the table, encode it, decode it into the caller's table.
SharedFileIndex sample_shares() {
  SharedFileIndex index;
  for (int i = 0; i < 40; ++i) {
    index.add(make_file("shared file " + std::to_string(i) + " track.mp3", 100));
  }
  return index;
}

QueryRouteTable round_trip(const QueryRouteTable& built) {
  QueryRouteTable out(13);
  EXPECT_TRUE(out.from_patch_bytes(built.to_patch_bytes()));
  return out;
}

TEST(PopulateQrt, IndexAnswererMatchesPatchRoundTrip) {
  IndexAnswerer answerer(sample_shares());
  for (unsigned bits : {4u, 8u, 13u, 16u}) {
    QueryRouteTable qrt(bits);
    answerer.populate_qrt(qrt);
    EXPECT_EQ(qrt, round_trip(sample_shares().build_qrt(bits))) << bits;
    EXPECT_EQ(qrt.table_bits(), bits);
  }
}

TEST(PopulateQrt, InfectedAnswererMatchesPatchRoundTrip) {
  auto cat = malware::limewire_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  agents::InfectedAnswerer answerer(store, {0}, sample_shares(), 9);
  QueryRouteTable all_ones(13);
  all_ones.fill_all();
  QueryRouteTable qrt(13);
  answerer.populate_qrt(qrt);
  EXPECT_EQ(qrt, round_trip(all_ones));
}

TEST(PopulateQrt, SwitchableAnswererMatchesPatchRoundTripInBothStates) {
  auto cat = malware::limewire_catalog();
  auto store = std::make_shared<malware::ArtifactStore>(cat.strains, 5);
  agents::SwitchableAnswerer answerer(store, 0, sample_shares(), 9);
  for (unsigned bits : {8u, 13u}) {
    QueryRouteTable clean(bits);
    answerer.populate_qrt(clean);
    EXPECT_EQ(clean, round_trip(sample_shares().build_qrt(bits))) << bits;
  }
  answerer.infect();
  QueryRouteTable all_ones(13);
  all_ones.fill_all();
  QueryRouteTable infected(13);
  answerer.populate_qrt(infected);
  EXPECT_EQ(infected, round_trip(all_ones));
}

TEST(SharedFileIndex, MatchAndLookup) {
  SharedFileIndex index;
  auto f1 = make_file("alpha beta.mp3", 100);
  auto f2 = make_file("beta gamma.exe", 200);
  std::uint32_t i1 = index.add(f1);
  std::uint32_t i2 = index.add(f2);
  EXPECT_EQ(index.count(), 2u);
  EXPECT_EQ(index.total_bytes(), 300u);

  auto matches = index.match("beta");
  EXPECT_EQ(matches.size(), 2u);
  matches = index.match("alpha");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].index, i1);

  EXPECT_EQ(index.get(i2)->name(), "beta gamma.exe");
  EXPECT_EQ(index.get(999), nullptr);

  auto qrt = index.build_qrt(13);
  EXPECT_TRUE(qrt.matches("alpha"));
  EXPECT_TRUE(qrt.matches("gamma"));
  EXPECT_FALSE(qrt.matches("delta"));
}

}  // namespace
}  // namespace p2p::gnutella
