// Failure injection: protocol nodes must survive garbage traffic, abrupt
// peer death, and adversarial message shapes without crashing or leaking
// protocol state.
#include <gtest/gtest.h>

#include "gnutella/servent.h"
#include "openft/node.h"
#include "util/rng.h"

namespace p2p {
namespace {

using sim::SimDuration;
using sim::SimTime;

/// A hostile node that connects and sprays arbitrary bytes.
class GarbageNode : public sim::Node {
 public:
  explicit GarbageNode(sim::NodeId target, std::uint64_t seed)
      : target_(target), rng_(seed) {}

  void start() override {
    conn_ = network().connect(id(), target_);
  }
  void on_connection_open(sim::ConnId conn, sim::NodeId, bool initiated) override {
    if (!initiated) return;
    for (int i = 0; i < 20; ++i) {
      util::Bytes junk(static_cast<std::size_t>(rng_.range(1, 200)));
      rng_.fill(junk);
      network().send(conn, id(), junk);
    }
    // Also send half-valid prefixes of each protocol's framing.
    for (const char* prefix : {"GNUTELLA", "GET ", "GIV ", "PUSH ", "HTTP/1.1 ",
                               "GNUTELLA CONNECT/0.6\r\n"}) {
      std::string s(prefix);
      network().send(conn, id(), util::Bytes(s.begin(), s.end()));
    }
  }
  void on_message(sim::ConnId, const util::Payload&) override {}

 private:
  sim::NodeId target_;
  sim::ConnId conn_ = sim::kInvalidConn;
  util::Rng rng_;
};

TEST(FailureInjection, ServentSurvivesGarbageTraffic) {
  sim::Network net(1001);
  auto cache = std::make_shared<gnutella::HostCache>();
  gnutella::ServentConfig cfg;
  cfg.ultrapeer = true;
  auto answerer =
      std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto servent = std::make_unique<gnutella::Servent>(cfg, answerer, cache, 1);
  gnutella::Servent* raw = servent.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(12, 0, 0, 1);
  sp.port = 6346;
  sim::NodeId target = net.add_node(std::move(servent), sp);
  cache->add({sp.ip, sp.port});

  for (int i = 0; i < 3; ++i) {
    sim::HostProfile gp;
    gp.ip = util::Ipv4(12, 0, 1, static_cast<std::uint8_t>(i + 1));
    gp.port = 9000;
    net.add_node(std::make_unique<GarbageNode>(target, 100 + static_cast<std::uint64_t>(i)), gp);
  }
  net.engine().run_until(SimTime::zero() + SimDuration::minutes(5));
  EXPECT_GT(raw->stats().dropped_malformed, 0u);
  // The servent is still functional afterwards: a fresh leaf can join.
  gnutella::ServentConfig leaf_cfg;
  auto leaf_answerer =
      std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto leaf = std::make_unique<gnutella::Servent>(leaf_cfg, leaf_answerer, cache, 2);
  gnutella::Servent* leaf_raw = leaf.get();
  sim::HostProfile lp;
  lp.ip = util::Ipv4(12, 0, 2, 1);
  lp.port = 7000;
  net.add_node(std::move(leaf), lp);
  net.engine().run_until(net.now() + SimDuration::minutes(2));
  EXPECT_GE(leaf_raw->overlay_link_count(), 1u);
}

TEST(FailureInjection, FtNodeSurvivesGarbageTraffic) {
  sim::Network net(1002);
  auto cache = std::make_shared<openft::FtHostCache>();
  openft::FtConfig cfg;
  cfg.klass = openft::kSearch | openft::kUser;
  auto node = std::make_unique<openft::FtNode>(cfg, std::vector<openft::FtShare>{},
                                               cache, 1);
  openft::FtNode* raw = node.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(13, 0, 0, 1);
  sp.port = 1216;
  sim::NodeId target = net.add_node(std::move(node), sp);
  cache->add({sp.ip, sp.port});

  for (int i = 0; i < 3; ++i) {
    sim::HostProfile gp;
    gp.ip = util::Ipv4(13, 0, 1, static_cast<std::uint8_t>(i + 1));
    gp.port = 9000;
    net.add_node(std::make_unique<GarbageNode>(target, 200 + static_cast<std::uint64_t>(i)), gp);
  }
  net.engine().run_until(SimTime::zero() + SimDuration::minutes(5));
  EXPECT_GT(raw->stats().dropped_malformed, 0u);

  // Still serves legitimate users.
  openft::FtConfig user_cfg;
  std::vector<openft::FtShare> shares;
  shares.push_back({std::make_shared<const files::FileContent>(
                        "legit.mp3", util::Bytes(500, 7)),
                    "/shared/legit.mp3"});
  auto user = std::make_unique<openft::FtNode>(user_cfg, shares, cache, 3);
  openft::FtNode* user_raw = user.get();
  sim::HostProfile up;
  up.ip = util::Ipv4(13, 0, 2, 1);
  up.port = 5000;
  net.add_node(std::move(user), up);
  net.engine().run_until(net.now() + SimDuration::minutes(2));
  EXPECT_GE(user_raw->session_count(), 1u);
  EXPECT_EQ(raw->child_count(), 1u);
}

TEST(FailureInjection, UltrapeerDeathMidQueryDoesNotCrash) {
  sim::Network net(1003);
  auto cache = std::make_shared<gnutella::HostCache>();
  std::vector<gnutella::Servent*> ups;
  std::vector<sim::NodeId> up_ids;
  for (int i = 0; i < 3; ++i) {
    gnutella::ServentConfig cfg;
    cfg.ultrapeer = true;
    auto answerer =
        std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
    auto servent = std::make_unique<gnutella::Servent>(
        cfg, answerer, cache, static_cast<std::uint64_t>(i + 1));
    ups.push_back(servent.get());
    sim::HostProfile sp;
    sp.ip = util::Ipv4(14, 0, 0, static_cast<std::uint8_t>(i + 1));
    sp.port = 6346;
    up_ids.push_back(net.add_node(std::move(servent), sp));
    cache->add({sp.ip, sp.port});
  }
  gnutella::ServentConfig leaf_cfg;
  auto leaf_answerer =
      std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto leaf = std::make_unique<gnutella::Servent>(leaf_cfg, leaf_answerer, cache, 9);
  gnutella::Servent* leaf_raw = leaf.get();
  sim::HostProfile lp;
  lp.ip = util::Ipv4(14, 0, 1, 1);
  lp.port = 7000;
  net.add_node(std::move(leaf), lp);
  net.engine().run_until(SimTime::zero() + SimDuration::minutes(2));

  // Fire a query and kill an ultrapeer while descriptors are in flight.
  leaf_raw->send_query("anything at all");
  net.remove_node(up_ids[0]);
  net.engine().run_until(net.now() + SimDuration::minutes(5));
  // The leaf recovers its connectivity with the survivors.
  EXPECT_GE(leaf_raw->overlay_link_count(), 1u);
}

TEST(FailureInjection, DownloaderDeathMidTransferLeavesServerHealthy) {
  sim::Network net(1004);
  auto cache = std::make_shared<gnutella::HostCache>();
  gnutella::SharedFileIndex index;
  util::Bytes big(400'000, 0x31);  // several seconds of transfer time
  big[0] = 'M';
  big[1] = 'Z';
  index.add(std::make_shared<const files::FileContent>("big file.exe", std::move(big)));
  gnutella::ServentConfig server_cfg;
  server_cfg.ultrapeer = true;
  auto server_answerer = std::make_shared<gnutella::IndexAnswerer>(std::move(index));
  auto server = std::make_unique<gnutella::Servent>(server_cfg, server_answerer,
                                                    cache, 1);
  gnutella::Servent* server_raw = server.get();
  sim::HostProfile sp;
  sp.ip = util::Ipv4(15, 0, 0, 1);
  sp.port = 6346;
  net.add_node(std::move(server), sp);
  cache->add({sp.ip, sp.port});

  gnutella::ServentConfig leaf_cfg;
  auto leaf_answerer =
      std::make_shared<gnutella::IndexAnswerer>(gnutella::SharedFileIndex{});
  auto leaf = std::make_unique<gnutella::Servent>(leaf_cfg, leaf_answerer, cache, 2);
  gnutella::Servent* leaf_raw = leaf.get();
  sim::HostProfile lp;
  lp.ip = util::Ipv4(15, 0, 0, 2);
  lp.port = 7000;
  sim::NodeId leaf_id = net.add_node(std::move(leaf), lp);
  net.engine().run_until(SimTime::zero() + SimDuration::seconds(30));

  std::vector<gnutella::HitEvent> hits;
  leaf_raw->set_hit_callback([&](const gnutella::HitEvent& e) { hits.push_back(e); });
  leaf_raw->send_query("big file");
  net.engine().run_until(net.now() + SimDuration::seconds(30));
  ASSERT_EQ(hits.size(), 1u);

  leaf_raw->download(hits[0].hit, hits[0].hit.results[0]);
  net.engine().run_until(net.now() + SimDuration::seconds(2));
  net.remove_node(leaf_id);  // downloader vanishes mid-transfer
  net.engine().run_until(net.now() + SimDuration::minutes(5));
  // The server survives and can answer a new client.
  EXPECT_GE(server_raw->stats().uploads_served, 1u);
  EXPECT_TRUE(net.alive(server_raw->id()));
}

}  // namespace
}  // namespace p2p
