// Integration tests for OpenFT nodes: sessions, child registration + share
// indexing, search (local + forwarded), transfers (direct and push-relayed).
#include "openft/node.h"

#include <gtest/gtest.h>

namespace p2p::openft {
namespace {

using sim::Network;
using sim::SimDuration;

std::shared_ptr<const files::FileContent> make_file(const std::string& name,
                                                    std::size_t size,
                                                    std::uint8_t fill = 0x33) {
  util::Bytes bytes(size, fill);
  return std::make_shared<const files::FileContent>(name, std::move(bytes));
}

struct MiniFt {
  Network net{4242};
  std::shared_ptr<FtHostCache> cache = std::make_shared<FtHostCache>();
  std::uint64_t next_seed = 500;
  int next_ip = 1;

  FtNode* add_search(std::vector<FtShare> shares = {}) {
    FtConfig cfg;
    cfg.klass = kSearch | kUser;
    cfg.alias = "search" + std::to_string(next_ip);
    return add(cfg, std::move(shares), false);
  }

  FtNode* add_user(std::vector<FtShare> shares = {}, bool behind_nat = false) {
    FtConfig cfg;
    cfg.klass = kUser;
    cfg.alias = "user" + std::to_string(next_ip);
    return add(cfg, std::move(shares), behind_nat);
  }

  FtNode* add(FtConfig cfg, std::vector<FtShare> shares, bool behind_nat) {
    auto node = std::make_unique<FtNode>(cfg, std::move(shares), cache, next_seed++);
    FtNode* raw = node.get();
    sim::HostProfile profile;
    profile.ip = util::Ipv4(7, 7, 7, static_cast<std::uint8_t>(next_ip));
    profile.port = static_cast<std::uint16_t>(1200 + next_ip);
    ++next_ip;
    profile.behind_nat = behind_nat;
    net.add_node(std::move(node), profile);
    if ((cfg.klass & kSearch) != 0 && !behind_nat) {
      cache->add(util::Endpoint{profile.ip, profile.port});
    }
    return raw;
  }

  void run_for(SimDuration d) { net.engine().run_until(net.now() + d); }
};

TEST(FtNode, UserEstablishesSessionAndBecomesChild) {
  MiniFt m;
  FtNode* search = m.add_search();
  FtNode* user = m.add_user({{make_file("song.mp3", 1000), "/shared/song.mp3"}});
  m.run_for(SimDuration::seconds(60));
  EXPECT_GE(user->session_count(), 1u);
  EXPECT_EQ(search->child_count(), 1u);
  EXPECT_EQ(search->stats().shares_indexed, 1u);
}

TEST(FtNode, SearchNodesPeer) {
  MiniFt m;
  FtNode* s1 = m.add_search();
  FtNode* s2 = m.add_search();
  m.run_for(SimDuration::seconds(60));
  EXPECT_GE(s1->session_count() + s2->session_count(), 1u);
}

TEST(FtNode, SearchFindsChildShares) {
  MiniFt m;
  m.add_search();
  m.add_user({{make_file("photomax setup.exe", 5000), "/shared/photomax setup.exe"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  std::vector<std::uint64_t> ended;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->set_search_end_callback([&](std::uint64_t id) { ended.push_back(id); });
  std::uint64_t id = searcher->search("photomax");
  m.run_for(SimDuration::minutes(2));

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].search_id, id);
  EXPECT_EQ(results[0].entry.path, "/shared/photomax setup.exe");
  EXPECT_EQ(results[0].entry.size, 5000u);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_EQ(ended[0], id);
}

TEST(FtNode, SearchForwardsAcrossSearchMesh) {
  MiniFt m;
  FtNode* s1 = m.add_search();
  FtNode* s2 = m.add_search();
  (void)s1;
  m.run_for(SimDuration::seconds(60));

  // A user whose only parent is s2 shares a file; searcher's parents
  // include s1 (and maybe s2) — forwarding must surface it either way.
  m.add_user({{make_file("rare item.zip", 4000), "/shared/rare item.zip"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));
  (void)s2;

  std::vector<FtSearchEvent> results;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->search("rare item");
  m.run_for(SimDuration::minutes(2));
  EXPECT_GE(results.size(), 1u);
}

TEST(FtNode, SearchNodeAnswersOwnShares) {
  MiniFt m;
  m.add_search({{make_file("hub file.exe", 2000), "/shared/hub file.exe"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->search("hub file");
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(results.size(), 1u);
}

TEST(FtNode, NoMatchesNoResults) {
  MiniFt m;
  m.add_search();
  m.add_user({{make_file("something.mp3", 100), "/shared/something.mp3"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->search("absent keywords");
  m.run_for(SimDuration::minutes(2));
  EXPECT_TRUE(results.empty());
}

TEST(FtNode, DirectDownloadDeliversBytes) {
  MiniFt m;
  auto file = make_file("download me.exe", 30'000, 0x44);
  m.add_search();
  m.add_user({{file, "/shared/download me.exe"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  std::vector<FtDownloadOutcome> outcomes;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->set_download_callback(
      [&](const FtDownloadOutcome& o) { outcomes.push_back(o); });
  searcher->search("download");
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].entry.owner_firewalled);

  searcher->download(results[0].entry);
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].content, file->bytes());
}

TEST(FtNode, FirewalledOwnerMarkedAndPushWorks) {
  MiniFt m;
  auto file = make_file("nat file.exe", 12'000, 0x55);
  m.add_search();
  m.add_user({{file, "/shared/nat file.exe"}}, /*behind_nat=*/true);
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  std::vector<FtDownloadOutcome> outcomes;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->set_download_callback(
      [&](const FtDownloadOutcome& o) { outcomes.push_back(o); });
  searcher->search("nat file");
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].entry.owner_firewalled);
  EXPECT_EQ(results[0].entry.owner_http_port, 0);

  searcher->download(results[0].entry);
  m.run_for(SimDuration::minutes(3));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].success) << outcomes[0].error;
  EXPECT_EQ(outcomes[0].content, file->bytes());
}

TEST(FtNode, DownloadOfVanishedOwnerFails) {
  MiniFt m;
  auto file = make_file("gone.exe", 1000);
  m.add_search();
  FtNode* owner = m.add_user({{file, "/shared/gone.exe"}});
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  std::vector<FtDownloadOutcome> outcomes;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->set_download_callback(
      [&](const FtDownloadOutcome& o) { outcomes.push_back(o); });
  searcher->search("gone");
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(results.size(), 1u);

  m.net.remove_node(owner->id());
  searcher->download(results[0].entry);
  m.run_for(SimDuration::minutes(5));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].success);
}

TEST(FtNode, SameContentManyPathsServedIdentically) {
  // The super-spreader pattern: one artifact registered under many paths.
  MiniFt m;
  auto artifact = make_file("gobbler.exe", 81'920, 0x13);
  std::vector<FtShare> shares;
  shares.push_back({artifact, "/shared/photomax.exe"});
  shares.push_back({artifact, "/shared/diskwizard.exe"});
  m.add_search();
  m.add_user(shares);
  FtNode* searcher = m.add_user();
  m.run_for(SimDuration::seconds(60));

  std::vector<FtSearchEvent> results;
  searcher->set_result_callback([&](const FtSearchEvent& e) { results.push_back(e); });
  searcher->search("photomax");
  searcher->search("diskwizard");
  m.run_for(SimDuration::minutes(2));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].entry.md5, results[1].entry.md5);
  EXPECT_EQ(results[0].entry.owner, results[1].entry.owner);
}

TEST(FtNode, ChildCapacityEnforced) {
  MiniFt m;
  FtConfig cfg;
  cfg.klass = kSearch | kUser;
  cfg.max_children = 1;
  FtNode* search = m.add(cfg, {}, false);
  m.add_user();
  m.add_user();
  m.run_for(SimDuration::minutes(2));
  EXPECT_EQ(search->child_count(), 1u);
}

}  // namespace
}  // namespace p2p::openft
